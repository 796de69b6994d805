//! `BENCHMARK.json` at the repo root and the harness's catalogue must
//! name the same workloads and metrics, within the driver's limits.

use blameit_benchmark::catalogue::{END_TO_END, PER_LAYER, WORKLOADS};
use blameit_benchmark::json::{as_arr, as_f64, as_str, get, parse, Json};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

fn field<'a>(v: &'a Json, key: &str) -> &'a str {
    as_str(get(v, key).unwrap_or_else(|| panic!("no `{key}`"))).unwrap()
}

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let doc = manifest();
    let Json::Obj(fields) = &doc else {
        panic!("not an object")
    };
    let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let workloads = as_arr(get(&doc, "workloads").unwrap()).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (w, def) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(field(w, "name"), def.name);
        assert_eq!(field(w, "why"), def.why);
        assert!(
            def.why.len() <= 200 && !def.why.contains('\n'),
            "{}",
            def.name
        );
    }

    let e2e = as_arr(get(&doc, "end_to_end").unwrap()).unwrap();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (m, def) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(field(m, "name"), def.name);
        assert_eq!(field(m, "unit"), def.unit);
        assert_eq!(field(m, "better"), def.better.as_str());
        assert_eq!(as_f64(get(m, "bound").unwrap()), Some(def.bound));
        assert!(def.bound > 0.0 && def.bound <= 0.25);
    }
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s" && d.bound == 0.25));

    let layers = as_arr(get(&doc, "per_layer").unwrap()).unwrap();
    assert_eq!(layers.len(), PER_LAYER.len());
    assert!(layers.len() <= 128);
    for (m, def) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(field(m, "name"), def.name);
        assert_eq!(field(m, "unit"), def.unit);
        assert_eq!(field(m, "better"), def.better.as_str());
    }

    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|d| d.name))
        .chain(PER_LAYER.iter().map(|d| d.name))
        .collect();
    assert!(names.iter().all(|n| valid_name(n)));
    assert!(END_TO_END.iter().all(|d| valid_unit(d.unit)));
    assert!(PER_LAYER.iter().all(|d| valid_unit(d.unit)));
    names.sort_unstable();
    let total = names.len();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");

    let seconds = as_f64(get(&doc, "run_seconds").unwrap()).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    let paths = as_arr(get(&doc, "paths").unwrap()).unwrap();
    assert_eq!(paths, [Json::Str("benchmark".to_string())]);
}

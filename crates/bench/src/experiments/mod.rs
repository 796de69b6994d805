//! The paper's tables and figures, one module each, behind one table.
//!
//! Every experiment is a `pub fn run(args: &Args)` that prints its
//! rows to stdout and panics if a contract it checks is violated, so
//! tests and the `blameit-bench` runner call them the same way.

use crate::Args;

pub mod ablation_priority;
pub mod ablations;
pub mod chaos;
pub mod confusion;
pub mod ext_reverse;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig2;
pub mod fig3;
pub mod fig4a;
pub mod fig4b;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod fig9;
pub mod incidents;
pub mod insights;
pub mod probe_overhead;
pub mod table1;
pub mod table2;

/// An experiment's entry point.
pub type Run = fn(&Args);

/// Every experiment by name, in the order `all` runs them (the paper's
/// order: tables, measurement figures, engine figures, validations).
pub const EXPERIMENTS: &[(&str, Run)] = &[
    ("table1", table1::run),
    ("table2", table2::run),
    ("fig2", fig2::run),
    ("fig3", fig3::run),
    ("fig4a", fig4a::run),
    ("fig4b", fig4b::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("insights", insights::run),
    ("confusion", confusion::run),
    ("ablations", ablations::run),
    ("ablation_priority", ablation_priority::run),
    ("ext_reverse", ext_reverse::run),
    ("probe_overhead", probe_overhead::run),
    ("incidents", incidents::run),
    ("chaos", chaos::run),
];

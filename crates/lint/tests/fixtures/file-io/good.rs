// Fixture: the sanctioned shape — file calls go through a generic
// filesystem. Its module path (`persist::fs`) and its associated file
// type (`F::File`) are not raw IO, so nothing trips.
use blameit::persist::fs::{AppendFile, Fs};

pub fn append<F: Fs>(fs: &F, path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut file: F::File = fs.open_append(path)?;
    file.write_all(bytes)?;
    file.sync_data()
}

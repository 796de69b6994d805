// Fixture: persistence code reaching past the filesystem seam. The
// import, the create and the read must all trip.
use std::fs::{self, File};

pub fn save(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut f = File::create(path)?;
    std::io::Write::write_all(&mut f, bytes)?;
    fs::read(path)
}

// Fixture: the real filesystem named behind annotated escapes — every
// mention needs its own annotation.

// lint:allow(file-io): this file IS the filesystem seam; everything else calls it through Fs
use std::fs::File;

pub fn create(path: &std::path::Path) -> std::io::Result<()> {
    // lint:allow(file-io): this file IS the filesystem seam; everything else calls it through Fs
    File::create(path)?.sync_all()
}

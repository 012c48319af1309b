// Golden fixture: public functions that no other file names. Scanned as
// `crates/core/src/fixture.rs` beside a caller file that names only
// `called_elsewhere`.

pub struct Thing;

pub fn called_elsewhere() {}

pub fn never_named_elsewhere() {}

pub const fn qualified_but_dead() -> u32 {
    0
}

impl Thing {
    pub fn dead_method(&self) {}
}

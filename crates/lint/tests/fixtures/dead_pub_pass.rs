// Golden fixture: nothing here fires `dead-pub` — each function is named
// by the caller file, restricted, private, test-only, or reserved by a
// pragma. Scanned as `crates/core/src/fixture.rs`.

pub fn called_elsewhere() {}

pub(crate) fn crate_private() {}

fn private() {}

// sage-lint: allow(dead-pub) -- reserved for a measured follow-up
pub fn reserved() {}

#[cfg(test)]
mod tests {
    pub fn test_helper() {}
}

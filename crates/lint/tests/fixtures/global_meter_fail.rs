// Golden fixture: `Meter::global()` diffs in test code. Under a crate
// source path only the `#[cfg(test)]` module fires; under `tests/` every
// site does; the meter's own file is exempt.

use sage_nvram::Meter;

pub fn report_traffic() -> u64 {
    Meter::global().snapshot().graph_read
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_on_a_global_diff() {
        let before = sage_nvram::Meter::global().snapshot();
        let after = Meter::global().snapshot().since(&before);
        assert_eq!(after.graph_write, 0);
    }
}

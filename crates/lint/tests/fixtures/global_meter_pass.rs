// Golden fixture: test code that reads a scope, and a `≤ global delta`
// bound under a pragma with its reason.

use sage_nvram::{Meter, MeterScope};

#[test]
fn scoped_equality() {
    let scope = MeterScope::new();
    scope.enter(|| run_algorithm());
    assert_eq!(scope.snapshot().graph_write, 0);
}

#[test]
fn served_traffic_is_bounded_by_the_global_delta() {
    // sage-lint: allow(global-meter) -- workers are plain threads; a `≤` bound cannot race
    let before = Meter::global().snapshot();
    let served = serve_queries();
    let delta = Meter::global().snapshot().since(&before); // sage-lint: allow(global-meter) -- as above
    assert!(served.graph_read <= delta.graph_read);
}

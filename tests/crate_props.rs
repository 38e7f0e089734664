//! Tier-1 bridge for the crate-level property tests.
//!
//! `cargo test -q` (the tier-1 command) runs only the root package, so
//! the wire codec's adversarial properties, the router's and the standing
//! queries' merge algebra, and the one histogram's properties (with the
//! profile codec's, and the fence that holds `RttAgg` to the histogram's
//! rules) would otherwise run only under CI's `--workspace`. The test
//! sources stay with their crates; this file compiles them into the root
//! package as well.

#[path = "../crates/serve/tests/hist_fence.rs"]
mod hist_fence;
#[path = "../crates/prof/tests/properties.rs"]
mod prof_properties;
#[path = "../crates/router/tests/properties.rs"]
mod router_properties;
#[path = "../crates/stream/tests/properties.rs"]
mod stream_properties;
#[path = "../crates/store/tests/threaded_writer.rs"]
mod threaded_writer;
#[path = "../crates/serve/tests/wire_props.rs"]
mod wire_props;

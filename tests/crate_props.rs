//! Tier-1 bridge for the serving tier's crate-level property tests.
//!
//! `cargo test -q` (the tier-1 command) runs only the root package, so
//! the wire codec's adversarial properties and the router's merge algebra
//! would otherwise run only under CI's `--workspace`. The test sources
//! stay with their crates; this file compiles them into the root package
//! as well.

#[path = "../crates/router/tests/properties.rs"]
mod router_properties;
#[path = "../crates/serve/tests/wire_props.rs"]
mod wire_props;

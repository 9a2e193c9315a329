//! Source-level audit of the untrusted decode/verify boundary.
//!
//! The clippy deny walls (`#![deny(clippy::unwrap_used, ...)]`) at the top of
//! each boundary module enforce panic-freedom when clippy runs in CI, but
//! `rustc` silently ignores tool lints during a plain `cargo test`. This test
//! makes the same guarantee self-enforcing: it scans the source of every
//! module reachable from attacker-controlled bytes and fails if a panicking
//! construct appears outside `#[cfg(test)]` and outside the explicit
//! allowlist below.

use std::fs;
use std::path::Path;

/// Panicking constructs that must not appear on the untrusted boundary.
const TOKENS: &[&str] =
    &[".unwrap()", ".expect(", "panic!", "unreachable!", "todo!", "unimplemented!"];

/// Modules reachable from untrusted bytes: the wire codec, the compressed
/// point decoder, accumulator decode/verify, the VO verification walk, the
/// streaming client over decoded stream bytes, and the on-disk record store.
const BOUNDARY_FILES: &[&str] = &[
    "../pairing/src/decode.rs",
    "../accumulator/src/lib.rs",
    "src/wire.rs",
    "src/vo.rs",
    "src/verify.rs",
    "src/client.rs",
    "src/store.rs",
];

/// `(file suffix, line substring)` pairs that are deliberately exempt.
/// Each entry must name a *trusted-side* panic with a documented rationale.
const ALLOWLIST: &[(&str, &str)] = &[
    // `Accumulator::setup` is the trusted miner-side wrapper around
    // `try_setup`; exceeding the public-key bound there is a provisioning
    // bug on the operator's own machine, not attacker input.
    ("accumulator/src/lib.rs", "panic!(\"accumulator setup exceeded key bounds"),
];

#[test]
fn untrusted_boundary_is_panic_free() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut violations = Vec::new();
    for rel in BOUNDARY_FILES {
        let path = root.join(rel);
        let src = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("boundary file {} unreadable: {e}", path.display()));
        for (idx, line) in src.lines().enumerate() {
            // Audit stops where the module's own tests begin: test code is
            // trusted and uses unwrap/expect freely. Only a column-0
            // attribute opens the tests module (as in `scripts/loc.sh`); an
            // indented one gates a single item and the scan goes on past it.
            if line.trim_end() == "#[cfg(test)]" {
                break;
            }
            let trimmed = line.trim_start();
            // Comment lines (`//`, `///`, `//!`) often *mention* unwrap in
            // doc examples; those never compile into the boundary.
            if trimmed.starts_with("//") {
                continue;
            }
            for token in TOKENS {
                if !trimmed.contains(token) {
                    continue;
                }
                let allowed = ALLOWLIST
                    .iter()
                    .any(|(file, needle)| rel.ends_with(file) && trimmed.contains(needle));
                if !allowed {
                    violations.push(format!("{rel}:{}: {token} in `{trimmed}`", idx + 1));
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "panicking constructs on the untrusted boundary (add a typed error, \
         or allowlist with a written rationale):\n{}",
        violations.join("\n")
    );
}

/// The allowlist must stay honest: every entry must still match a real line,
/// so stale exemptions get cleaned up rather than silently widening the gate.
#[test]
fn allowlist_entries_still_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (file, needle) in ALLOWLIST {
        let rel = BOUNDARY_FILES
            .iter()
            .find(|r| r.ends_with(file))
            .unwrap_or_else(|| panic!("allowlist names {file}, not a boundary file"));
        let src = fs::read_to_string(root.join(rel)).expect("boundary file readable");
        assert!(
            src.lines().any(|l| l.contains(needle)),
            "allowlist entry ({file}, {needle}) matches nothing — remove it"
        );
    }
}

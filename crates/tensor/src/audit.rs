//! Runtime mint-audit layer (the `audit` cargo feature).
//!
//! The id-keyed caches rest on one invariant: **id equality certifies byte
//! equality**. At compile time the contract's preconditions hold by
//! construction: `Tensor`'s id and index fields are private, nothing derives
//! or hand-writes a `Tensor` decoder, and every mutable accessor re-mints.
//! This module checks the invariant itself at runtime: a process-global
//! registry maps every *observed* content id to a fingerprint of the bytes
//! it certified, and any later observation of the same id over different
//! bytes panics — that is a mutable access that forgot to re-mint, or an
//! id that bypassed the mint entirely (e.g. a hand-rolled deserializer).
//!
//! Observation happens in [`crate::Tensor::content_id`] — the moment an id
//! escapes to a cache — so the audit sees exactly the ids the caches key
//! on. The registry is append-only and bounded by the number of distinct
//! ids observed per process; the feature is a debugging/CI tool, not a
//! production mode.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};

/// id → fingerprint of the bytes the id certified when first observed.
fn registry() -> &'static Mutex<HashMap<u64, u64>> {
    static REGISTRY: OnceLock<Mutex<HashMap<u64, u64>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// FNV-1a over a byte stream. Not cryptographic — the audit flags
/// *certain* mismatches; a 2^-64 false-negative rate is fine for a debug
/// layer.
pub fn fingerprint_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// [`fingerprint_bytes`] over the bit patterns of `data`. Bit-exact:
/// `0.0` vs `-0.0` and NaN payloads all count as distinct.
pub fn fingerprint(data: &[f32]) -> u64 {
    fingerprint_bytes(data.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// Records that `id` certifies `data`'s bytes, panicking when `id` was
/// previously observed over different bytes.
pub fn observe(id: u64, data: &[f32]) {
    verify_raw(id, fingerprint(data));
}

/// Fingerprint-level [`observe`], for callers that already hashed (the
/// cache-side audits hash non-`Tensor` buffers with [`fingerprint`]-style
/// hashes of their own).
pub fn verify_raw(id: u64, fp: u64) {
    let mut registry = registry().lock().unwrap_or_else(PoisonError::into_inner);
    match registry.insert(id, fp) {
        Some(previous) if previous != fp => {
            // tidy:allow(no-panic): the audit layer's whole product is this panic
            panic!(
                "content-id audit: id {id} certified bytes with fingerprint \
                 {previous:#018x} but now carries {fp:#018x} — a mutable access \
                 bypassed the re-mint, or the id bypassed the mint"
            );
        }
        _ => {}
    }
}

/// Distinct ids observed so far (test introspection).
pub fn observed() -> usize {
    registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .len()
}

/// (store name, fingerprint key) → fingerprint of the fulfilled bytes.
/// Separate from the id registry: cache keys are u128 fingerprints in
/// their own namespace per store.
fn fulfill_log() -> &'static Mutex<HashMap<(&'static str, u128), u64>> {
    static LOG: OnceLock<Mutex<HashMap<(&'static str, u128), u64>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Records that cache `store` fulfilled `key` with content hashing to
/// `fp`, panicking when the same key was previously fulfilled with
/// different content — a fingerprint collision (two distinct operand sets
/// hashing to one key) or a non-pure compute function. Cached values must
/// be pure functions of their key, so a second fulfilment (e.g. after a
/// quarantine discarded the first) must be byte-identical.
pub fn check_fulfill(store: &'static str, key: u128, fp: u64) {
    let mut log = fulfill_log().lock().unwrap_or_else(PoisonError::into_inner);
    match log.insert((store, key), fp) {
        Some(previous) if previous != fp => {
            // tidy:allow(no-panic): the audit layer's whole product is this panic
            panic!(
                "cache audit: {store} fulfilled key {key:#034x} with fingerprint \
                 {previous:#018x} and later with {fp:#018x} — fingerprint collision \
                 or impure compute function"
            );
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_bytes_reobserve_fine_different_bytes_panic() {
        // Ids far above anything the mint hands out in a test process.
        observe(u64::MAX - 1, &[1.0, 2.0]);
        observe(u64::MAX - 1, &[1.0, 2.0]);
        let outcome = std::panic::catch_unwind(|| observe(u64::MAX - 1, &[1.0, 2.5]));
        assert!(outcome.is_err(), "changed bytes under a held id must panic");
    }

    #[test]
    fn fingerprint_separates_close_values_and_signed_zero() {
        assert_ne!(fingerprint(&[0.0]), fingerprint(&[-0.0]));
        assert_ne!(fingerprint(&[1.0]), fingerprint(&[1.0 + f32::EPSILON]));
        assert_eq!(fingerprint(&[3.5, 4.5]), fingerprint(&[3.5, 4.5]));
    }
}

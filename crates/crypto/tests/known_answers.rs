//! Known-answer vectors pinning key derivation, signing and Merkle roots.
//!
//! Durable recovery re-derives every signing key from its label seed and
//! replays the chain through signature verification, so any change to the
//! bytes a `KeyPair` produces would make existing stores unrecoverable.
//! These vectors were computed with the original scalar SHA-256 and the
//! direct (no midstate) Lamport secret derivation; every backend and
//! optimisation must reproduce them exactly.

use medledger_crypto::{sha256, Hash256, KeyPair, MerkleTree};

fn kat_pair() -> KeyPair {
    KeyPair::generate("kat", 8)
}

#[test]
fn keypair_public_key_is_pinned() {
    assert_eq!(
        kat_pair().public().0.to_hex(),
        "102772f72e01fe65c7f7cf361f3393db91d784eefe68cab44e327e02af02ff35"
    );
}

#[test]
fn first_signature_share_digest_is_pinned() {
    let mut kp = kat_pair();
    let sig = kp
        .sign(b"medledger known-answer message")
        .expect("capacity");
    assert!(sig.verify(&kp.public(), b"medledger known-answer message"));
    assert_eq!(
        sig.share_digest().to_hex(),
        "7a572a07625374499d38fe6d210ddfd07e56fe84d8f23424bb1d1c9999294aec"
    );
}

#[test]
fn five_leaf_merkle_root_is_pinned() {
    let leaves: Vec<Hash256> = (0u8..5).map(|i| sha256(&[i])).collect();
    assert_eq!(
        MerkleTree::from_leaves(leaves).root().to_hex(),
        "0f5680b0556814e85ed2cacc677ec79a3cb1694fbb93118dbfd366d60b1a5473"
    );
}

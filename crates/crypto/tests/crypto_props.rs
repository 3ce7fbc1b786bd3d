//! Property-based tests of the cryptographic substrate.

use medledger_crypto::{
    hmac_sha256, merkle::leaf_hash, sha256, Hash256, HmacKey, KeyPair, MerkleTree, Prg,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SHA-256 incremental hashing agrees with one-shot hashing for any
    /// 0–1024-byte message (up to 17 blocks) cut into any number of
    /// `update` calls. The `sha256` unit tests hold the one-shot digest to
    /// the scalar backend.
    #[test]
    fn sha256_incremental_agrees(data in proptest::collection::vec(any::<u8>(), 0..1025),
                                 cuts in proptest::collection::vec(0usize..1025, 0..12)) {
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
        cuts.sort_unstable();
        let mut h = medledger_crypto::Sha256::new();
        let mut at = 0;
        for cut in cuts {
            h.update(&data[at..cut]);
            at = cut;
        }
        h.update(&data[at..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// A key pair re-derived from the same label, as recovery does,
    /// has the same public key, and verifies what the original signed
    /// with any of its one-time keys.
    #[test]
    fn rederived_keys_verify_old_signatures(seed in 0u32..1000, used in 0usize..4,
                                            msg in proptest::collection::vec(any::<u8>(), 0..64)) {
        let label = format!("prop-rederive-{seed}");
        let mut original = KeyPair::generate(&label, 4);
        original.restore_used(used as u64);
        let sig = original.sign(&msg).expect("capacity");
        let recovered = KeyPair::generate(&label, 4);
        prop_assert_eq!(recovered.public(), original.public());
        prop_assert!(sig.verify(&recovered.public(), &msg));
    }

    /// Hash is injective in practice: different inputs, different digests
    /// (collision would falsify this for our generator sizes).
    #[test]
    fn sha256_distinguishes(a in proptest::collection::vec(any::<u8>(), 0..64),
                            b in proptest::collection::vec(any::<u8>(), 0..64)) {
        if a != b {
            prop_assert_ne!(sha256(&a), sha256(&b));
        }
    }

    /// HMAC verification accepts the real tag and rejects a perturbed one.
    #[test]
    fn hmac_verify_sound(key in proptest::collection::vec(any::<u8>(), 1..80),
                         msg in proptest::collection::vec(any::<u8>(), 0..128),
                         flip in 0usize..32) {
        let k = HmacKey::new(&key);
        let tag = k.mac(&msg);
        prop_assert!(k.verify(&msg, &tag));
        prop_assert_eq!(tag, hmac_sha256(&key, &msg));
        let mut bad = *tag.as_bytes();
        bad[flip] ^= 0x01;
        prop_assert!(!k.verify(&msg, &Hash256(bad)));
    }

    /// Every Merkle leaf of every tree size proves against the root, and
    /// a proof never validates a different leaf.
    #[test]
    fn merkle_proofs_complete_and_sound(n in 1usize..40, probe in 0usize..40) {
        let mut prg = Prg::from_label("prop-merkle");
        let leaves: Vec<Hash256> = (0..n).map(|_| prg.next_hash()).collect();
        let tree = MerkleTree::from_leaves(leaves.clone());
        let root = tree.root();
        let i = probe % n;
        let proof = tree.prove(i).expect("in range");
        prop_assert!(proof.verify(&root, &leaves[i]));
        // Soundness: a different leaf value fails.
        let other = leaf_hash(b"not-a-leaf");
        if other != leaves[i] {
            prop_assert!(!proof.verify(&root, &other));
        }
    }

    /// Signatures verify for the signed message and fail for any other.
    #[test]
    fn signature_round_trip(msg in proptest::collection::vec(any::<u8>(), 0..64),
                            other in proptest::collection::vec(any::<u8>(), 0..64),
                            seed in 0u32..1000) {
        let mut kp = KeyPair::generate(&format!("prop-sig-{seed}"), 2);
        let sig = kp.sign(&msg).expect("capacity");
        prop_assert!(sig.verify(&kp.public(), &msg));
        if other != msg {
            prop_assert!(!sig.verify(&kp.public(), &other));
        }
    }

    /// The PRG's rejection-sampled bounded draw is uniform enough to stay
    /// in range and deterministic per seed.
    #[test]
    fn prg_bounded_draws(seed in 0u64..10_000, bound in 1u64..1000) {
        let mut a = Prg::from_label(&format!("prop-prg-{seed}"));
        let mut b = Prg::from_label(&format!("prop-prg-{seed}"));
        for _ in 0..16 {
            let x = a.next_below(bound);
            prop_assert!(x < bound);
            prop_assert_eq!(x, b.next_below(bound));
        }
    }
}

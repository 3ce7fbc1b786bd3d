//! Hash-based digital signatures: Lamport one-time signatures under a
//! Merkle tree (a small Merkle Signature Scheme, MSS).
//!
//! This gives MedLedger *publicly verifiable* transaction signatures built
//! entirely from SHA-256:
//!
//! * A [`KeyPair`] deterministically derives `capacity` Lamport one-time
//!   keys from a seed; the **public key is the Merkle root** over the
//!   one-time public keys, and doubles as the account identifier on the
//!   permissioned ledger.
//! * Each [`Signature`] reveals, per digest bit, one of the two secret
//!   preimages of the chosen one-time key, plus the complementary public
//!   values and the Merkle authentication path to the root.
//! * Signing consumes one-time keys; reusing an exhausted key pair is an
//!   error ([`SigningError::KeysExhausted`]), never silent reuse.
//!
//! The scheme's unforgeability reduces to the preimage resistance of
//! SHA-256, which is exactly the strength the paper's architecture needs
//! from its Ethereum accounts (DESIGN.md §2).

use crate::hash::Hash256;
use crate::merkle::{MerkleProof, MerkleTree};
use crate::par;
use crate::sha256::{sha256, sha256_concat, Sha256};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of message-digest bits, hence Lamport value pairs per key.
const BITS: usize = 256;

/// Deepest authentication path [`Signature::verify`] accepts: a tree over
/// `u64` leaf indices has at most 64 levels.
const MAX_DEPTH: usize = 64;

const SK_TAG: &[u8] = b"medledger.ots.sk:";
const PUB_TAG: &[u8] = b"medledger.ots.pub:";
const LEAF_TAG: &[u8] = b"medledger.ots.leaf:";

/// A verifying key: the Merkle root over the one-time public keys.
///
/// Also used as the account identifier (`AccountId`) across the ledger.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct PublicKey(pub Hash256);

impl PublicKey {
    /// Short hex prefix for traces.
    pub fn short(&self) -> String {
        self.0.short()
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({})", self.0.short())
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.short())
    }
}

/// Errors from signing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SigningError {
    /// All `capacity` one-time keys have been consumed.
    KeysExhausted,
}

impl fmt::Display for SigningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SigningError::KeysExhausted => write!(f, "all one-time signing keys consumed"),
        }
    }
}

impl std::error::Error for SigningError {}

/// A Merkle/Lamport signature.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature {
    /// Which one-time key was used.
    pub leaf_index: u64,
    /// Per digest bit: the revealed secret preimage.
    pub revealed: Vec<Hash256>,
    /// Per digest bit: the public value for the *complementary* bit, needed
    /// to reconstruct the one-time public key.
    pub complements: Vec<Hash256>,
    /// Authentication path from the one-time public key to the root.
    pub auth_path: MerkleProof,
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Signature(leaf={}, depth={})",
            self.leaf_index,
            self.auth_path.depth()
        )
    }
}

impl Signature {
    /// Verifies this signature over `msg` against `public`.
    ///
    /// Malformed shapes (wrong vector lengths, an authentication path for
    /// another leaf, or one deeper than any tree) are rejected before any
    /// hashing.
    pub fn verify(&self, public: &PublicKey, msg: &[u8]) -> bool {
        if self.revealed.len() != BITS
            || self.complements.len() != BITS
            || self.auth_path.leaf_index != self.leaf_index
            || self.auth_path.path.len() > MAX_DEPTH
        {
            return false;
        }
        let digest = sha256(msg);
        // Reconstruct the one-time public key: for each bit, the public
        // value of the signed side is H(revealed); the other side comes
        // from `complements`.
        let leaf = ots_leaf(|j| {
            let signed_pub = ots_public(&self.revealed[j]);
            if bit_at(&digest, j) == 0 {
                (signed_pub, self.complements[j])
            } else {
                (self.complements[j], signed_pub)
            }
        });
        self.auth_path.verify(&public.0, &leaf)
    }

    /// Approximate wire size in bytes (used by the storage experiments).
    pub fn encoded_len(&self) -> usize {
        8 + 32 * (self.revealed.len() + self.complements.len() + self.auth_path.path.len())
    }
}

/// A signing key: `capacity` Lamport one-time keys under one Merkle root.
///
/// All secret material is derived on demand from a 32-byte seed, so the
/// in-memory footprint is small regardless of capacity.
#[derive(Clone)]
pub struct KeyPair {
    seed: Hash256,
    capacity: u64,
    next_index: u64,
    tree: MerkleTree,
    public: PublicKey,
}

impl fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KeyPair(pk={}, used={}/{})",
            self.public.short(),
            self.next_index,
            self.capacity
        )
    }
}

fn bit_at(digest: &Hash256, j: usize) -> u8 {
    (digest.as_bytes()[j / 8] >> (7 - (j % 8))) & 1
}

/// The public value of one Lamport secret.
fn ots_public(secret: &Hash256) -> Hash256 {
    sha256_concat(&[PUB_TAG, secret.as_bytes()])
}

/// A one-time public key's Merkle leaf: the hash over its 256 public
/// value pairs `pair(j) = (pub0, pub1)`.
///
/// The pairs are gathered first so the 16 KiB body is hashed as one run
/// of whole blocks.
fn ots_leaf(mut pair: impl FnMut(usize) -> (Hash256, Hash256)) -> Hash256 {
    let mut body = Vec::with_capacity(2 * 32 * BITS);
    for j in 0..BITS {
        let (pub0, pub1) = pair(j);
        body.extend_from_slice(pub0.as_bytes());
        body.extend_from_slice(pub1.as_bytes());
    }
    sha256_concat(&[LEAF_TAG, &body])
}

/// The 512 Lamport secrets of one one-time key.
///
/// Secret `(bit_pos, bit_val)` of key `key_index` is
/// `H(SK_TAG ‖ seed ‖ key_index ‖ bit_pos ‖ bit_val)` with both indices as
/// big-endian `u64`: 17 + 32 + 8 + 8 + 1 = 66 bytes, two compressions.
/// Because `bit_pos < 256`, the first 64 bytes (up to the seven zero high
/// bytes of `bit_pos`) are the same for every secret of the key. They are
/// compressed once here, and each secret then costs one compression on a
/// clone of that midstate. The digests are unchanged.
struct OtsSecrets(Sha256);

impl OtsSecrets {
    fn new(seed: &Hash256, key_index: u64) -> Self {
        let mut h = Sha256::new();
        h.update(SK_TAG);
        h.update(seed.as_bytes());
        h.update(&key_index.to_be_bytes());
        h.update(&[0u8; 7]);
        OtsSecrets(h)
    }

    fn secret(&self, bit_pos: usize, bit_val: u8) -> Hash256 {
        debug_assert!(bit_pos < BITS);
        let mut h = self.0.clone();
        h.update(&[bit_pos as u8, bit_val]);
        h.finalize()
    }
}

impl KeyPair {
    /// Deterministically generates a key pair from a label.
    ///
    /// `capacity` (rounded up to the next power of two, min 1) bounds how
    /// many messages the key can sign.
    pub fn generate(label: &str, capacity: usize) -> Self {
        let seed = sha256_concat(&[b"medledger.keypair.v1:", label.as_bytes()]);
        Self::from_seed(seed, capacity)
    }

    /// Generates a key pair from an explicit 32-byte seed.
    ///
    /// The one-time key leaves are independent, so they are derived on
    /// the [`par`] helper, one chunk per host thread: the leaves, and
    /// hence the key, are the same for any number of threads. A leaf is
    /// 1,282 compressions, so even two of them repay a thread spawn.
    pub fn from_seed(seed: Hash256, capacity: usize) -> Self {
        let capacity = capacity.max(1).next_power_of_two() as u64;
        let leaves = par::run_partitioned((0..capacity).collect(), par::host_parallelism(), |i| {
            Self::ots_leaf_hash(&seed, i)
        });
        let tree = MerkleTree::from_leaves(leaves);
        let public = PublicKey(tree.root());
        KeyPair {
            seed,
            capacity,
            next_index: 0,
            tree,
            public,
        }
    }

    /// The verifying key (account identifier).
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// One-time keys still available.
    pub fn remaining(&self) -> u64 {
        self.capacity - self.next_index
    }

    /// Total one-time key capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// One-time keys already consumed (the next leaf index to sign with).
    pub fn used(&self) -> u64 {
        self.next_index
    }

    /// Restores the consumed-key watermark after recovering a key pair
    /// via [`KeyPair::generate`] / [`KeyPair::from_seed`].
    ///
    /// Durable storage persists only `(label-derived seed, used)` — never
    /// secret material — and a recovered signer must not reuse a one-time
    /// key it already revealed, so the watermark only ever moves forward.
    pub fn restore_used(&mut self, used: u64) {
        self.next_index = self.next_index.max(used.min(self.capacity));
    }

    fn ots_leaf_hash(seed: &Hash256, key_index: u64) -> Hash256 {
        let secrets = OtsSecrets::new(seed, key_index);
        ots_leaf(|j| {
            (
                ots_public(&secrets.secret(j, 0)),
                ots_public(&secrets.secret(j, 1)),
            )
        })
    }

    /// Signs `msg`, consuming the next one-time key.
    pub fn sign(&mut self, msg: &[u8]) -> Result<Signature, SigningError> {
        if self.next_index >= self.capacity {
            return Err(SigningError::KeysExhausted);
        }
        let idx = self.next_index;
        self.next_index += 1;
        let digest = sha256(msg);
        let secrets = OtsSecrets::new(&self.seed, idx);
        let mut revealed = Vec::with_capacity(BITS);
        let mut complements = Vec::with_capacity(BITS);
        for j in 0..BITS {
            let bit = bit_at(&digest, j);
            revealed.push(secrets.secret(j, bit));
            complements.push(ots_public(&secrets.secret(j, 1 - bit)));
        }
        let auth_path = self
            .tree
            .prove(idx as usize)
            .expect("index < capacity, proof must exist");
        Ok(Signature {
            leaf_index: idx,
            revealed,
            complements,
            auth_path,
        })
    }
}

/// The canonical message a sharing peer signs to acknowledge that it
/// applied `version` of shared table `table_id` with content `applied_hash`.
///
/// Domain-tagged and length-unambiguous (the table id is followed by a NUL
/// that cannot occur inside it, then fixed-width fields), so the same
/// message is reconstructed identically by signer, verifier and auditor.
pub fn ack_message(table_id: &str, version: u64, applied_hash: &Hash256) -> Vec<u8> {
    let mut m = Vec::with_capacity(17 + table_id.len() + 1 + 8 + 32);
    m.extend_from_slice(b"medledger.ack.v1:");
    m.extend_from_slice(table_id.as_bytes());
    m.push(0);
    m.extend_from_slice(&version.to_be_bytes());
    m.extend_from_slice(applied_hash.as_bytes());
    m
}

impl Signature {
    /// Canonical digest of this signature's full content (leaf index,
    /// revealed preimages, complements, authentication path).
    ///
    /// Used as a signature *share* in aggregated acknowledgements: the
    /// digest commits to every byte of the share, so the fold over shares
    /// changes if any contributor's signature is altered.
    pub fn share_digest(&self) -> Hash256 {
        let mut h = Sha256::new();
        h.update(b"medledger.ack.share.v1:");
        h.update(&self.leaf_index.to_be_bytes());
        for r in &self.revealed {
            h.update(r.as_bytes());
        }
        for c in &self.complements {
            h.update(c.as_bytes());
        }
        h.update(&self.auth_path.leaf_index.to_be_bytes());
        for p in &self.auth_path.path {
            h.update(p.as_bytes());
        }
        h.finalize()
    }
}

/// Folds verified signature shares into one aggregate attestation hash.
///
/// The fold is a sequential SHA-256 chain seeded with the digest of the
/// common ack message, absorbing `(contributor, share digest)` pairs in the
/// given order. Callers pass contributors in canonical (sorted) order so
/// every node derives the same attestation; the result commits to the
/// message, the contributor set *and* each contributor's actual one-time
/// signature — there is no algebraic aggregation, only hash folding, which
/// keeps the scheme inside the paper's SHA-256-only trust base.
pub fn fold_attestation(message: &[u8], shares: &[(PublicKey, Hash256)]) -> Hash256 {
    let msg_digest = sha256(message);
    let mut acc = sha256_concat(&[b"medledger.ack.fold.v1:", msg_digest.as_bytes()]);
    for (contributor, share) in shares {
        acc = sha256_concat(&[
            b"medledger.ack.fold.step:",
            acc.as_bytes(),
            contributor.0.as_bytes(),
            share.as_bytes(),
        ]);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::counter;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The direct 66-byte secret derivation that [`OtsSecrets`] shortcuts.
    fn direct_secret(seed: &Hash256, key_index: u64, bit_pos: u64, bit_val: u8) -> Hash256 {
        sha256_concat(&[
            SK_TAG,
            seed.as_bytes(),
            &key_index.to_be_bytes(),
            &bit_pos.to_be_bytes(),
            &[bit_val],
        ])
    }

    #[test]
    fn midstate_secrets_match_direct_derivation() {
        let seed = sha256(b"midstate");
        for key_index in [0, 1, 7, u32::MAX as u64, 1 << 32, (1 << 32) + 5, u64::MAX] {
            let secrets = OtsSecrets::new(&seed, key_index);
            for j in 0..BITS {
                for bit in 0..2 {
                    assert_eq!(
                        secrets.secret(j, bit),
                        direct_secret(&seed, key_index, j as u64, bit),
                        "key {key_index} bit {j}/{bit}"
                    );
                }
            }
        }
    }

    /// The parallel key generation derives exactly the leaves, tree and
    /// public key of a one-thread loop over the same leaf derivation.
    #[test]
    fn parallel_keygen_matches_sequential_leaves() {
        let seed = sha256(b"parallel keygen");
        for capacity in [1usize, 3, 64, 1024] {
            let kp = KeyPair::from_seed(seed, capacity);
            let leaves: Vec<Hash256> = (0..kp.capacity())
                .map(|i| KeyPair::ots_leaf_hash(&seed, i))
                .collect();
            let tree = MerkleTree::from_leaves(leaves.clone());
            assert_eq!(kp.capacity(), capacity.next_power_of_two() as u64);
            assert_eq!(kp.public(), PublicKey(tree.root()), "capacity {capacity}");
            for (i, leaf) in leaves.iter().enumerate() {
                assert_eq!(kp.tree.leaf(i), Some(*leaf), "capacity {capacity} leaf {i}");
            }
            assert_eq!(kp.tree.leaf(leaves.len()), None);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random seeds and key indices across the whole `u64` range.
        #[test]
        fn midstate_secrets_match_direct_for_random_keys(seed in vec(any::<u8>(), 32..33),
                                                         key_index in any::<u64>(),
                                                         bit_pos in 0usize..BITS,
                                                         bit in 0u8..2) {
            let seed = Hash256(seed.try_into().expect("32 bytes"));
            prop_assert_eq!(
                OtsSecrets::new(&seed, key_index).secret(bit_pos, bit),
                direct_secret(&seed, key_index, bit_pos as u64, bit)
            );
        }
    }

    /// Pins the cost of the scheme in compressions: a one-time key costs
    /// 1 midstate + 512 secrets + 512 public values + 257 leaf blocks =
    /// 1,282; a sign costs 1 midstate + 512 secrets + 256 public
    /// values = 769, plus the message digest.
    #[test]
    fn compression_counts() {
        // Keygen derives its leaves on worker threads, whose compressions
        // this thread's counter does not see, so its parts are counted
        // here: 1,282 per one-time key leaf, then 3 interior Merkle nodes
        // (2 each) over 4 leaves.
        let seed = sha256(b"cost");
        let mut kp = KeyPair::from_seed(seed, 4);
        let leaves: Vec<Hash256> = (0..4)
            .map(|i| {
                let (leaf, blocks) = counter::measure(|| KeyPair::ots_leaf_hash(&seed, i));
                assert_eq!(blocks, 1_282, "leaf {i}");
                leaf
            })
            .collect();
        let (tree, blocks) = counter::measure(|| MerkleTree::from_leaves(leaves));
        assert_eq!(blocks, 3 * 2);
        assert_eq!(PublicKey(tree.root()), kp.public());
        let (sig, sign) = counter::measure(|| kp.sign(b"m").expect("sign"));
        assert_eq!(sign, 1 + 769);
        // Message (1) + 256 public values + 257 leaf + 2 path nodes (2 each).
        let (ok, verify) = counter::measure(|| sig.verify(&kp.public(), b"m"));
        assert!(ok);
        assert_eq!(verify, 1 + 256 + 257 + 2 * 2);
    }

    /// Hand-built hostile signatures whose shape is wrong are rejected
    /// without a single compression.
    #[test]
    fn hostile_shapes_rejected_before_hashing() {
        let mut kp = KeyPair::generate("hostile", 4);
        let mut mismatched = kp.sign(b"m").expect("sign");
        mismatched.auth_path.leaf_index = 3;
        let forged = |depth: usize| Signature {
            leaf_index: 0,
            revealed: vec![Hash256::ZERO; BITS],
            complements: vec![Hash256::ZERO; BITS],
            auth_path: MerkleProof {
                leaf_index: 0,
                path: vec![Hash256::ZERO; depth],
            },
        };
        for sig in [mismatched, forged(MAX_DEPTH + 1), forged(1 << 20)] {
            let (ok, blocks) = counter::measure(|| sig.verify(&kp.public(), b"m"));
            assert!(!ok);
            assert_eq!(blocks, 0, "{sig:?} was hashed before being rejected");
        }
        // A well-formed shape is hashed and then fails on content.
        let (ok, blocks) = counter::measure(|| forged(MAX_DEPTH).verify(&kp.public(), b"m"));
        assert!(!ok);
        assert!(blocks > 0);
    }

    #[test]
    fn sign_verify_round_trip() {
        let mut kp = KeyPair::generate("alice", 4);
        let sig = kp.sign(b"update D23").expect("sign");
        assert!(sig.verify(&kp.public(), b"update D23"));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let mut kp = KeyPair::generate("alice", 4);
        let sig = kp.sign(b"update D23").expect("sign");
        assert!(!sig.verify(&kp.public(), b"update D13"));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let mut alice = KeyPair::generate("alice", 4);
        let bob = KeyPair::generate("bob", 4);
        let sig = alice.sign(b"m").expect("sign");
        assert!(!sig.verify(&bob.public(), b"m"));
    }

    #[test]
    fn each_signature_uses_fresh_leaf() {
        let mut kp = KeyPair::generate("carol", 4);
        let s1 = kp.sign(b"a").expect("sign");
        let s2 = kp.sign(b"b").expect("sign");
        assert_eq!(s1.leaf_index, 0);
        assert_eq!(s2.leaf_index, 1);
        assert!(s1.verify(&kp.public(), b"a"));
        assert!(s2.verify(&kp.public(), b"b"));
        assert_eq!(kp.remaining(), 2);
    }

    #[test]
    fn exhaustion_is_an_error() {
        let mut kp = KeyPair::generate("dave", 2);
        assert_eq!(kp.capacity(), 2);
        kp.sign(b"1").expect("sign 1");
        kp.sign(b"2").expect("sign 2");
        assert_eq!(kp.sign(b"3"), Err(SigningError::KeysExhausted));
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let kp = KeyPair::generate("e", 3);
        assert_eq!(kp.capacity(), 4);
        let kp = KeyPair::generate("e", 0);
        assert_eq!(kp.capacity(), 1);
    }

    #[test]
    fn deterministic_public_key() {
        let a = KeyPair::generate("fixed", 4);
        let b = KeyPair::generate("fixed", 4);
        assert_eq!(a.public(), b.public());
        let c = KeyPair::generate("other", 4);
        assert_ne!(a.public(), c.public());
    }

    #[test]
    fn tampered_signature_fails() {
        let mut kp = KeyPair::generate("mallory-target", 4);
        let mut sig = kp.sign(b"legit").expect("sign");
        sig.revealed[17] = Hash256([0xee; 32]);
        assert!(!sig.verify(&kp.public(), b"legit"));

        let mut sig2 = kp.sign(b"legit").expect("sign");
        sig2.complements[200] = Hash256([0x11; 32]);
        assert!(!sig2.verify(&kp.public(), b"legit"));
    }

    #[test]
    fn mismatched_leaf_index_fails() {
        let mut kp = KeyPair::generate("idx", 4);
        let mut sig = kp.sign(b"m").expect("sign");
        sig.leaf_index = 1; // auth path still for leaf 0
        assert!(!sig.verify(&kp.public(), b"m"));
    }

    #[test]
    fn truncated_signature_fails() {
        let mut kp = KeyPair::generate("trunc", 2);
        let mut sig = kp.sign(b"m").expect("sign");
        sig.revealed.pop();
        assert!(!sig.verify(&kp.public(), b"m"));
    }

    #[test]
    fn encoded_len_is_plausible() {
        let mut kp = KeyPair::generate("size", 8);
        let sig = kp.sign(b"m").expect("sign");
        // 512 hashes + 3-deep path + index.
        assert_eq!(sig.encoded_len(), 8 + 32 * (256 + 256 + 3));
    }

    #[test]
    fn ack_message_is_unambiguous() {
        let h = Hash256([5; 32]);
        let a = ack_message("D13&D31", 3, &h);
        let b = ack_message("D13&D31", 4, &h);
        let c = ack_message("D13&D3", 13, &h);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // Deterministic.
        assert_eq!(a, ack_message("D13&D31", 3, &h));
    }

    #[test]
    fn share_digest_commits_to_every_byte() {
        let mut kp = KeyPair::generate("share", 4);
        let msg = ack_message("T", 1, &Hash256([2; 32]));
        let sig = kp.sign(&msg).expect("sign");
        let d = sig.share_digest();
        let mut tampered = sig.clone();
        tampered.revealed[0] = Hash256([0xaa; 32]);
        assert_ne!(d, tampered.share_digest());
        let mut tampered2 = sig.clone();
        tampered2.leaf_index ^= 1;
        assert_ne!(d, tampered2.share_digest());
    }

    #[test]
    fn fold_attestation_is_order_and_content_sensitive() {
        let msg = ack_message("T", 1, &Hash256([2; 32]));
        let mut a = KeyPair::generate("fold-a", 4);
        let mut b = KeyPair::generate("fold-b", 4);
        let sa = (a.public(), a.sign(&msg).expect("a").share_digest());
        let sb = (b.public(), b.sign(&msg).expect("b").share_digest());
        let ab = fold_attestation(&msg, &[sa, sb]);
        let ba = fold_attestation(&msg, &[sb, sa]);
        assert_ne!(ab, ba);
        // Deterministic given the same order.
        assert_eq!(ab, fold_attestation(&msg, &[sa, sb]));
        // Commits to the message.
        let other_msg = ack_message("T", 2, &Hash256([2; 32]));
        assert_ne!(ab, fold_attestation(&other_msg, &[sa, sb]));
        // Commits to the contributor set (empty vs non-empty differ).
        assert_ne!(ab, fold_attestation(&msg, &[sa]));
    }
}

//! Known-answer vector pinning a block hash built from fixed inputs.
//!
//! The hash covers the header encoding and, through the transaction root,
//! every byte of a signed transaction, including its hash-based signature.
//! A durable store written by an earlier build must keep recovering, so
//! this value may only change together with the block or signature format.

use medledger_crypto::{Hash256, KeyPair};
use medledger_ledger::{Block, Transaction, TxPayload};

#[test]
fn block_hash_is_pinned() {
    let mut sender = KeyPair::generate("kat-sender", 4);
    let proposer = KeyPair::generate("kat-proposer", 2).public();
    let tx = Transaction {
        sender: sender.public(),
        nonce: 0,
        payload: TxPayload::Noop,
        conflict_key: Some("D13&D31".to_string()),
    }
    .sign(&mut sender)
    .expect("capacity");
    assert!(tx.verify_signature());
    let block = Block::assemble(
        7,
        Hash256([1; 32]),
        Hash256([2; 32]),
        1_234,
        proposer,
        vec![tx],
    )
    .in_wave(Some(3));
    assert_eq!(
        block.hash().to_hex(),
        "c31b5f836457581c8f405fd84b67d46506ea10cc24ef6dc8fdf85d36e45a8475"
    );
}

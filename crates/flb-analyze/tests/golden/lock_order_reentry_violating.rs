//! Golden input: same-class re-entry on an indexed lock collection —
//! the lock class a sharded design introduces (one `Mutex` per shard
//! mailbox). Holding two members at once deadlocks the moment a
//! second thread takes them in the opposite index order, and no static
//! analysis can prove the indices ordered.
//! Analyzed as `crates/flb-bench/src/mailboxes.rs`.

use parking_lot::Mutex;

pub struct Mailboxes {
    inboxes: Vec<Mutex<Vec<u32>>>,
}

impl Mailboxes {
    pub fn transfer(&self, from: usize, to: usize) {
        let mut src = self.inboxes[from].lock();
        let mut dst = self.inboxes[to].lock(); // self-edge: inboxes -> inboxes
        dst.append(&mut src);
    }
}

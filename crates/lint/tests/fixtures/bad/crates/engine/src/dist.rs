//! Seeded violations: panic-discipline in a panic-scoped file (bare
//! indexing and unwrap on one line), and thread creation outside the
//! `engine::sched` subsystem, the single spawn site.

pub fn first_result(slots: Vec<Option<u32>>) -> u32 {
    slots[0].unwrap()
}

pub fn drain_on_scoped_threads() {
    std::thread::scope(|_| {});
}

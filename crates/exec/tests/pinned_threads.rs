//! An explicit `AXONN_THREADS` sizes each rank's kernel pool and places
//! its comm stream from the same count, from the first world of the
//! process on. Its own test binary: the variable is read once per
//! process and pins the global pool.

use axonn_exec::run_spmd;

#[test]
fn pinned_thread_count_places_every_world_alike() {
    // Set before any world exists, as a user's environment would be; the
    // only test in this binary, so nothing reads the environment
    // concurrently.
    std::env::set_var("AXONN_THREADS", "2");
    // Each rank of a 2-rank world gets the pinned 2 kernel threads, so
    // it keeps a comm worker — in the first world as in the second.
    for world in 0..2 {
        let seen = run_spmd(2, |c| (rayon::current_num_threads(), c.has_comm_worker()));
        assert_eq!(seen, vec![(2, true); 2], "world {world}");
    }
}

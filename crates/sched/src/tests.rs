//! Scheduler unit/property tests: the claim order, and the pool-level
//! merge-discipline, isolation and wake-up properties the solver layers
//! rely on.

use super::{BatchReport, Pool, RETRY_LIMIT};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Merge-discipline ordering property: whatever order the pool executes a
/// batch in, per-index result slots merged in ascending index order give
/// the sequential answer. The job bodies record their execution order so
/// the test can also confirm the schedule was *not* (necessarily) the
/// merge order — the discipline, not the scheduler, carries determinism.
#[test]
fn ascending_merge_is_schedule_independent() {
    const JOBS: usize = 200;
    let sequential: Vec<u64> = (0..JOBS as u64).map(|i| i.wrapping_mul(i) ^ 0xabc).collect();
    for threads in [1usize, 2, 4, 8] {
        let slots: Vec<AtomicU64> = (0..JOBS).map(|_| AtomicU64::new(u64::MAX)).collect();
        let order: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let report = Pool::scoped(threads, |pool| {
            pool.run(JOBS, 0, |i| {
                order.lock().unwrap().push(i);
                slots[i].store((i as u64).wrapping_mul(i as u64) ^ 0xabc, Ordering::Relaxed);
            })
        });
        assert!(report.is_clean());
        let merged: Vec<u64> = slots.iter().map(|s| s.load(Ordering::Relaxed)).collect();
        assert_eq!(merged, sequential, "{threads} threads");
        let order = order.into_inner().unwrap();
        assert_eq!(order.len(), JOBS, "every job ran exactly once at {threads} threads");
        if threads == 1 {
            // Single participant: a top-level batch goes out lowest first.
            assert_eq!(order, (0..JOBS).collect::<Vec<_>>());
        }
    }
}

/// Claim order with one participant: a nested batch opened by a job runs
/// to the end before the top-level batch goes on, and both run from their
/// lowest index up.
#[test]
fn single_participant_drains_nested_batch_first() {
    let order = Mutex::new(Vec::new());
    Pool::scoped(1, |pool| {
        pool.run(3, 0, |t| {
            order.lock().unwrap().push(format!("T{t}"));
            if t == 0 {
                pool.run(3, 1, |n| order.lock().unwrap().push(format!("N{n}")));
            }
        });
    });
    assert_eq!(order.into_inner().unwrap(), ["T0", "N0", "N1", "N2", "T1", "T2"]);
}

/// Claim order with two participants: the submitter's nested job 0 cannot
/// finish until another nested job has, so the other participant must
/// help. The submitter works up from index 0; the helper's first claim is
/// the highest index, and it works down. The helper is already waiting
/// when the batches open, so this also hangs if opening one wakes no one.
#[test]
fn helper_claims_nested_batch_from_the_top() {
    let claims = Mutex::new(Vec::new());
    let released = AtomicBool::new(false);
    Pool::scoped(2, |pool| {
        while pool.stats().idle_parks == 0 {
            std::thread::yield_now();
        }
        pool.run(1, 0, |_| {
            let submitter = pool.participant_ordinal();
            pool.run(6, 1, |j| {
                claims.lock().unwrap().push((pool.participant_ordinal() == submitter, j));
                while j == 0 && !released.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                released.store(true, Ordering::Release);
            });
        })
    });
    let claims = claims.into_inner().unwrap();
    let by = |own: bool| claims.iter().filter(|c| c.0 == own).map(|c| c.1).collect::<Vec<_>>();
    let mut order = by(true);
    order.extend(by(false).iter().rev());
    assert_eq!(order, [0, 1, 2, 3, 4, 5], "submitter ascends, helper descends: {claims:?}");
}

/// Panic isolation: a job that always panics is retried
/// `RETRY_LIMIT` times then reported lost; the rest of the batch
/// completes, and the report is identical at every thread count.
#[test]
fn poisoned_job_is_retried_then_lost_deterministically() {
    const JOBS: usize = 40;
    const POISON: usize = 17;
    let mut reports: Vec<BatchReport> = Vec::new();
    for threads in [1usize, 2, 4] {
        let done = AtomicUsize::new(0);
        let report = Pool::scoped(threads, |pool| {
            pool.run(JOBS, 0, |i| {
                if i == POISON {
                    panic!("poisoned job");
                }
                done.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert_eq!(done.load(Ordering::Relaxed), JOBS - 1, "{threads} threads");
        assert_eq!(report.lost, vec![POISON]);
        assert_eq!(report.panics_caught, u64::from(RETRY_LIMIT) + 1);
        assert_eq!(report.jobs_retried, u64::from(RETRY_LIMIT));
        reports.push(report);
    }
    for r in &reports[1..] {
        assert_eq!(r.lost, reports[0].lost);
        assert_eq!(r.panics_caught, reports[0].panics_caught);
    }
}

/// Nested batches share the ambient pool: a job submits a sub-batch via
/// `Pool::with`, which must not spawn threads, and idle workers steal the
/// nested jobs. Nested job 0 plays a "stalled subtree": its executor
/// (always the nested submitter — it claims its own batch from index 0,
/// while others take the highest index) refuses to finish until some
/// *other* nested job has completed, and the only way another nested job
/// can run — even on a single hardware core — is for an idle worker to
/// steal it. So `steals > 0` is a structural guarantee, not a timing
/// accident.
#[test]
fn nested_batches_reuse_pool_and_get_stolen() {
    let nested_sum = AtomicU64::new(0);
    let nested_done = AtomicU64::new(0);
    let stats = Pool::scoped(4, |pool| {
        let report = pool.run(6, 0, |i| {
            if i == 0 {
                // The "stalled window": fans out its own sub-batch.
                Pool::with(99, |inner| {
                    assert_eq!(inner.threads(), 4, "nested Pool::with must reuse the pool");
                    let sub = inner.run(32, 1, |j| {
                        if j == 0 {
                            while nested_done.load(Ordering::Acquire) == 0 {
                                std::thread::yield_now();
                            }
                        } else {
                            nested_done.fetch_add(1, Ordering::Release);
                        }
                        nested_sum.fetch_add(j as u64 + 1, Ordering::Relaxed);
                    });
                    assert!(sub.is_clean());
                });
            } else {
                nested_sum.fetch_add(1_000, Ordering::Relaxed);
            }
        });
        assert!(report.is_clean());
        pool.stats()
    });
    assert_eq!(nested_sum.load(Ordering::Relaxed), 5_000 + (32 * 33) / 2);
    assert_eq!(stats.jobs, 6 + 32);
    assert_eq!(stats.batches, 2);
    assert_eq!(stats.nested_batches, 1);
    assert!(stats.steals > 0, "workers never stole the stalled submitter's nested jobs");
}

/// A non-participant thread holding a `&Pool` falls back to inline
/// sequential execution instead of deadlocking or corrupting queues.
#[test]
fn non_participant_submission_runs_inline() {
    let order = Mutex::new(Vec::new());
    Pool::scoped(2, |pool| {
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let report = pool.run(5, 0, |i| order.lock().unwrap().push(i));
                    assert!(report.is_clean());
                })
                .join()
                .unwrap();
        });
    });
    assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
}

/// Oversubscription smoke: many more participants than cores, nested
/// batches, and tiny jobs, over repeated pool lifetimes — the untimed
/// waits must lose no wake-up at start-up, while draining, or at
/// shutdown. (CI runs the full determinism suite at `--threads 8` on a
/// 1-CPU runner; this is the in-crate fast check.)
#[test]
fn oversubscribed_pool_drains_nested_batches() {
    for round in 0..50 {
        let total = AtomicU64::new(0);
        Pool::scoped(8, |pool| {
            let report = pool.run(16, 0, |_| {
                Pool::with(8, |inner| {
                    let sub = inner.run(8, 2, |_| {
                        total.fetch_add(1, Ordering::Relaxed);
                    });
                    assert!(sub.is_clean());
                });
            });
            assert!(report.is_clean());
        });
        assert_eq!(total.load(Ordering::Relaxed), 16 * 8, "round {round}");
    }
}

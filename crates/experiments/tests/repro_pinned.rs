//! Pins the exact text `repro` prints: every target at `--scale tiny
//! --seed 1` (and one multi-trial churn sweep), each reduced to an FNV-1a
//! digest of its stdout. A refactor of the figure code must leave every
//! digest as it is; a change that is meant to move a figure must say so.
//! The invocations run side by side, a few at a time.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `(arguments, FNV-1a 64 of stdout)`.
const PINNED: &[(&[&str], u64)] = &[
    (&["fig1"], 0xc9e2_8e6f_5b64_810a),
    (&["fig2"], 0xab6a_2df4_f67e_0717),
    (&["fig3"], 0xe9a1_7bee_fb48_630b),
    (&["fig4"], 0xdaf5_ee3a_2127_6ff7),
    (&["fig5"], 0x397e_e1e3_ff40_a25d),
    (&["fig6"], 0x1bdb_686d_6364_b793),
    // Moved from 0x8745_5672_b44a_2a93: victims drawn by the spec's `[catastrophic]` rule.
    (&["fig7"], 0xb8f4_fab8_c934_9175),
    // Moved from 0xb370_cb6b_3e89_2455: victims drawn by the spec's `[catastrophic]` rule.
    (&["fig8"], 0x1ff7_cfb6_594e_1c4e),
    (&["adv-poisson"], 0x2f2f_1068_c784_ec92),
    (&["adv-flash-crowd"], 0x594f_8182_697f_03e5),
    (&["adv-free-riders"], 0x59e1_4931_b399_df29),
    (&["adv-byzantine"], 0xc563_5a5d_0758_36e8),
    (&["adv-partition"], 0x0a6c_aedd_277c_d8ba),
    (&["adv-throttle"], 0x64b8_2a11_2ed6_39d8),
    (&["ext-membership"], 0x6d58_b629_5d10_41f0),
    // Moved from 0x1f84_95b1_d39e_4016: caps drawn by the spec's bandwidth classes.
    (&["ext-heterogeneous"], 0x071f_a13a_d25f_ec14),
    // Moved from 0x7da2_1c08_cc66_9ba3 when `ext-scaling` began to honour
    // `--scale`: at tiny scale it sweeps n = 10 and 20 on a 15 + 10 s
    // stream, not n = 30…230 on 45 + 25 s. `--scale full` prints what it
    // printed before, byte for byte.
    (&["ext-scaling"], 0x3b53_e479_cf6f_aa6c),
    (&["ext-period"], 0x91ed_f63d_5998_1e03),
    // Moved from 0x089f_8dcc_4cea_0d8e: victims drawn by the spec's `[catastrophic]` rule.
    (&["ext-churn-timeline"], 0xf362_445a_a095_c86e),
    (&["ext-ablations"], 0xc9a6_0ea0_bcb4_35c6),
    // Moved from 0x679f_f139_23dd_6090: fig7/fig8 crash by the spec's `[catastrophic]` rule.
    (&["all"], 0x9f5a_8ede_17c4_318f),
    // Moved from 0x6f6a_13f4_e3a9_cec2: `adv-catastrophic` folded into fig7/fig8.
    (&["adv"], 0x0707_4b23_389f_de77),
    // Moved from 0x881c_e26c_4945_0de8: its heterogeneous caps and churn timeline via the spec.
    (&["ext"], 0xe520_71ea_c585_878e),
    // Moved from 0xd6a7_caba_13d2_f61f: victims drawn by the spec's `[catastrophic]` rule.
    (&["fig7", "--trials", "2"], 0xc860_c080_5cb7_f349),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Runs `repro` with `args` at tiny scale and seed 1: the FNV-1a digest of
/// its stdout, or why it failed.
fn digest_of(args: &[&str]) -> Result<u64, String> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .args(["--scale", "tiny", "--seed", "1"])
        .output()
        .map_err(|e| format!("repro {args:?} did not start: {e}"))?;
    if !out.status.success() {
        return Err(format!("repro {args:?} failed: {}", String::from_utf8_lossy(&out.stderr)));
    }
    Ok(fnv1a(&out.stdout))
}

/// Every pinned invocation, on at most `available_parallelism()` worker
/// threads that each take the next one not yet started; the outcomes come
/// back in `PINNED` order.
fn digests() -> Vec<Result<u64, String>> {
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let next = AtomicUsize::new(0);
    let mut outcomes: Vec<(usize, Result<u64, String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..workers.min(PINNED.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(args, _)) = PINNED.get(i) else { return done };
                        done.push((i, digest_of(args)));
                    }
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("a worker thread")).collect()
    });
    outcomes.sort_by_key(|&(i, _)| i);
    outcomes.into_iter().map(|(_, outcome)| outcome).collect()
}

#[test]
fn repro_output_is_pinned() {
    let mut mismatches = Vec::new();
    for (&(args, pinned), outcome) in PINNED.iter().zip(digests()) {
        let digest = outcome.unwrap_or_else(|why| panic!("{why}"));
        if digest != pinned {
            mismatches.push(format!("repro {args:?}: {digest:#018x}, pinned {pinned:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "repro output moved:\n{}", mismatches.join("\n"));
}

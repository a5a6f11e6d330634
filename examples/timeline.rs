//! Watch a run unfold over time: per-second delivery rate, queue backlog
//! and drops, rendered as sparklines — including the dip-and-recovery
//! around a catastrophic churn event. The crash is Figures 7/8's own
//! (`figures::churn::catastrophic_spec`: the adversity spec's
//! `[catastrophic]` rule at the stream midpoint, victims drawn when the
//! spec compiles, never the source). The run is read at every simulated
//! second through `Scenario::run_probed`.
//!
//! ```text
//! cargo run --release --example timeline [churn_percent]
//! ```

use gossip_experiments::figures::churn::catastrophic_spec;
use gossip_experiments::{Scale, Scenario};
use gossip_types::{Duration, Time};

fn main() {
    let pct: u32 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(30);
    let scenario = Scenario::tiny(6).with_seed(11);
    let crash_at = scenario.stream_duration / 2;
    let crash = catastrophic_spec(Scale::Tiny, pct);
    println!(
        "{} nodes, {pct}% crash at {}; one sparkline bar = 1 s\n",
        scenario.n,
        Time::ZERO + crash_at
    );

    // Cumulative packets delivered to the receivers (from 0 at the start),
    // bytes queued on the upload links, cumulative upload-queue drops.
    let (mut delivered, mut queued, mut dropped) = (vec![0u64], Vec::new(), Vec::new());
    let result =
        scenario.with_adversity(crash).run_probed(Duration::from_secs(1), |_, hosted, _| {
            delivered.push(hosted[1..].iter().map(|h| h.player.packets_received()).sum());
            queued.push(hosted.iter().map(|h| h.link.queued_bytes() as u64).sum());
            dropped.push(hosted.iter().map(|h| h.link.stats().msgs_dropped).sum());
        });

    // Delivery rate: packets per second across all surviving receivers.
    let rate: Vec<u64> = delivered.windows(2).map(|w| w[1] - w[0]).collect();
    println!("delivery rate  {}", sparkline(&rate));
    println!("queued bytes   {}", sparkline(&queued));
    println!("drops (cum.)   {}", sparkline(&dropped));

    println!("\ntotal packets delivered to receivers: {}", delivered.last().unwrap_or(&0));
    println!(
        "average complete windows (offline): {:.1}%",
        result.quality.average_quality_percent(Duration::MAX)
    );
}

/// One bar per value, scaled between the series' minimum and maximum.
fn sparkline(values: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let lo = values.iter().copied().min().unwrap_or(0);
    let range = (values.iter().copied().max().unwrap_or(0) - lo).max(1) as f64;
    values.iter().map(|&v| BARS[((v - lo) as f64 / range * 7.0).round() as usize]).collect()
}

//! Watch a run unfold over time: per-second delivery rate, queue backlog
//! and drops, rendered as sparklines — including the dip-and-recovery
//! around a catastrophic churn event.
//!
//! ```text
//! cargo run --release --example timeline [churn_percent]
//! ```

use gossip_experiments::churn::catastrophic_crash;
use gossip_experiments::Scenario;
use gossip_sim::DetRng;
use gossip_types::{NodeId, Time};

fn main() {
    let pct: u32 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(30);
    let scenario = Scenario::tiny(6).with_seed(11);
    let crash_at = scenario.stream_duration / 2;
    let mut rng = DetRng::seed_from(11);
    let crash = catastrophic_crash(
        crash_at,
        scenario.n,
        f64::from(pct) / 100.0,
        &[NodeId::new(0)],
        &mut rng,
    );
    println!(
        "{} nodes, {pct}% crash at {}; one sparkline bucket ≈ 1 s\n",
        scenario.n,
        Time::ZERO + crash_at
    );
    let result = scenario.with_adversity(crash).run();
    let t = &result.timeline;

    // Delivery rate (packets/s across all surviving receivers).
    let mut rate = gossip_metrics::TimeSeries::new("delivery_rate");
    for (at, v) in t.delivered.rates() {
        rate.push(at, v);
    }
    let width = 60;
    println!("delivery rate  {}", rate.sparkline(width));
    println!("queued bytes   {}", t.queued_bytes.sparkline(width));
    println!("drops (cum.)   {}", t.dropped.sparkline(width));

    let last = t.delivered.last().map_or(0.0, |(_, v)| v);
    println!("\ntotal packets delivered to receivers: {last}");
    println!(
        "average complete windows (offline): {:.1}%",
        result.quality.average_quality_percent(gossip_types::Duration::MAX)
    );
}

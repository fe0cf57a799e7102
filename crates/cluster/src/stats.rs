//! Statistics collected by the cluster simulation.

use subsonic_obs::MetricsRegistry;

/// Per-process accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStats {
    /// Seconds spent computing.
    pub t_calc: f64,
    /// Seconds spent waiting for halo messages.
    pub t_com: f64,
    /// Seconds spent paused (synchronisation, migration, checkpointing).
    pub t_paused: f64,
    /// Integration steps completed.
    pub steps: u64,
}

impl ProcStats {
    /// Processor utilisation `g = T_calc / (T_calc + T_com)` (eq. 8),
    /// excluding pauses.
    pub fn utilization(&self) -> f64 {
        if self.t_calc + self.t_com == 0.0 {
            return 1.0;
        }
        self.t_calc / (self.t_calc + self.t_com)
    }
}

/// What happened in the user/background layer (the stochastic environment of
/// section 5.1) — recorded so two runs can be compared event-for-event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackgroundEventKind {
    /// The console user switched between active and idle.
    UserFlip,
    /// A competing full-time job arrived.
    JobArrival,
    /// A competing full-time job finished.
    JobDeparture,
}

/// One user/background event, timestamped. The trace is a determinism probe:
/// the background layer draws from its own RNG stream, so two runs with the
/// same seed but different *policy* settings (comm ordering, checkpoint
/// schedule, ...) must produce identical traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackgroundEvent {
    /// Simulated time of the event.
    pub t: f64,
    /// Host it happened on.
    pub host: usize,
    /// What happened.
    pub kind: BackgroundEventKind,
}

/// One completed migration.
#[derive(Debug, Clone, Copy)]
pub struct MigrationRecord {
    /// The migrated process.
    pub proc_id: usize,
    /// Host it left.
    pub from_host: usize,
    /// Host it moved to.
    pub to_host: usize,
    /// When the monitor signalled the migration.
    pub signal_time: f64,
    /// When every process had paused at the synchronisation step.
    pub pause_time: f64,
    /// When computation resumed (CONT).
    pub resume_time: f64,
}

impl MigrationRecord {
    /// The visible cost: global pause duration.
    pub fn pause_duration(&self) -> f64 {
        self.resume_time - self.pause_time
    }

    /// Signal-to-resume duration (includes the synchronisation drain).
    pub fn total_duration(&self) -> f64 {
        self.resume_time - self.signal_time
    }
}

/// One failure-triggered recovery: a subprocess died (host crash) or was
/// declared dead (stall outlasting the detector), and the runtime restarted
/// it on a fresh host from the last coordinated checkpoint, rolling every
/// process back to the checkpointed step.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryRecord {
    /// The process that was restarted.
    pub proc_id: usize,
    /// Host it died on.
    pub from_host: usize,
    /// Host it was re-submitted to.
    pub to_host: usize,
    /// When the fault struck (heartbeats stopped).
    pub fault_time: f64,
    /// When the failure detector declared the process dead.
    pub detect_time: f64,
    /// When the whole computation resumed from the rollback step.
    pub resume_time: f64,
    /// The coordinated-checkpoint step everyone rolled back to.
    pub rollback_step: u64,
    /// Steps of work the failed process had completed past the rollback step
    /// (the recomputation the cluster must redo).
    pub lost_steps: u64,
    /// Whether the "dead" process was actually alive (a transient stall that
    /// outlasted the detector — a false-positive restart).
    pub false_positive: bool,
}

impl RecoveryRecord {
    /// Fault-to-declaration latency (the detector's contribution).
    pub fn detection_latency(&self) -> f64 {
        self.detect_time - self.fault_time
    }

    /// Fault-to-resume downtime (detection + re-submission + reload).
    pub fn downtime(&self) -> f64 {
        self.resume_time - self.fault_time
    }
}

/// Counters of the message-level reliable transport (all zero when the run
/// has no message-level faults and the transport stays disengaged).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Fresh DATA messages handed to the transport.
    pub data_sent: u64,
    /// Retransmissions (timeout expiries that re-sent a DATA message).
    pub retransmits: u64,
    /// ACKs put on the wire by receivers (duplicates are re-ACKed).
    pub acks_sent: u64,
    /// ACKs that settled an outstanding message at the sender.
    pub acks_received: u64,
    /// ACKs that arrived for an already-settled (or recovery-cleared)
    /// message.
    pub late_acks: u64,
    /// Duplicate DATA deliveries suppressed by sequence number.
    pub dup_suppressed: u64,
    /// Messages that crossed the give-up threshold and were reported to the
    /// monitor as delivery failures.
    pub give_ups: u64,
    /// Injected losses (DATA transmissions dropped by a message-fault
    /// window).
    pub injected_losses: u64,
    /// Injected duplications.
    pub injected_dups: u64,
    /// Injected reorderings (transmissions held back before the wire).
    pub injected_reorders: u64,
    /// DATA/ACK/probe transmissions dropped by an active network partition.
    pub partition_drops: u64,
    /// Accrual-detector probes put on the wire.
    pub probes_sent: u64,
    /// Probe replies that came back.
    pub probe_replies: u64,
}

/// One delivery failure the transport reported to the monitor: a message
/// crossed [`crate::transport::TransportConfig::max_attempts`] transmissions
/// without an ACK — the observable symptom of a dead receiver, a partition,
/// or pathological congestion.
#[derive(Debug, Clone, Copy)]
pub struct DeliveryFailureRecord {
    /// Sending process.
    pub from_proc: usize,
    /// Receiving process the ACKs never came from.
    pub to_proc: usize,
    /// Step of the undeliverable halo.
    pub step: u64,
    /// Exchange id of the undeliverable halo.
    pub xch: usize,
    /// When the sender gave up.
    pub at: f64,
    /// Transmissions at the moment of giving up.
    pub attempts: u32,
}

/// Aggregate results of a simulation run.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Per-process accounting (indexed like the workload tiles).
    pub procs: Vec<ProcStats>,
    /// Completed migrations.
    pub migrations: Vec<MigrationRecord>,
    /// Checkpoint rounds completed.
    pub checkpoint_rounds: u64,
    /// Total seconds processes spent saving checkpoints.
    pub checkpoint_pause_total: f64,
    /// Payload bytes moved over the network.
    pub net_bytes: f64,
    /// Messages delivered.
    pub net_messages: u64,
    /// TCP give-up errors (section 7's 3D failure mode).
    pub net_errors: u64,
    /// UDP datagrams lost and resent by the application (Appendix D).
    pub net_losses: u64,
    /// Seconds the network was busy.
    pub net_busy: f64,
    /// Halo sends staged by the rendezvous coupling (transmission held until
    /// the receiver posted its receive).
    pub rendezvous_staged: u64,
    /// Total seconds staged sends waited for their receiver's rendezvous.
    pub rendezvous_wait_total: f64,
    /// Trace of user/background events (empty when the user model is off).
    pub background_events: Vec<BackgroundEvent>,
    /// Largest step difference ever observed between two processes
    /// (Appendix A's un-synchronization).
    pub max_observed_skew: u64,
    /// Completed failure-triggered recoveries.
    pub recoveries: Vec<RecoveryRecord>,
    /// Injected host crashes that actually hit the run.
    pub host_crashes: u64,
    /// Crashed hosts that finished rebooting.
    pub host_reboots: u64,
    /// Injected transient host stalls.
    pub host_freezes: u64,
    /// Injected bus-saturation bursts.
    pub bus_bursts: u64,
    /// Reliable-transport counters (all zero when the transport is
    /// disengaged).
    pub transport: TransportStats,
    /// Delivery failures the transport reported to the monitor.
    pub delivery_failures: Vec<DeliveryFailureRecord>,
    /// Injected network partitions that actually opened during the run.
    pub partitions: u64,
    /// Injected message-fault windows that actually opened during the run.
    pub msg_fault_windows: u64,
    /// Halo payloads applied twice to the same solver slot (must stay zero:
    /// the transport's dedup is supposed to make delivery exactly-once).
    pub duplicate_halo_applies: u64,
    /// Halo consumptions observed out of `(step, exchange)` order on some
    /// process (must stay zero: reordering may shuffle the wire, never the
    /// solver).
    pub out_of_order_consumes: u64,
    /// Largest accrual suspicion level φ the detector ever computed.
    pub suspicion_peak: f64,
    /// Simulated time at which the run target was reached (or the run
    /// stopped).
    pub finished_at: f64,
    /// High-water mark of pending events in the calendar queue (engine
    /// memory accounting for the `scale` experiment).
    pub peak_queue_events: usize,
    /// High-water mark of in-flight network transfers.
    pub peak_net_transfers: usize,
    /// Approximate resident bytes of the event queue + network model at the
    /// end of the run (capacity-based; bounds per-host engine memory).
    pub engine_bytes: usize,
    /// Network completions taken through the ulp-rounding fallback instead
    /// of the tolerance window (diagnostic — see
    /// [`crate::bus::NetworkModel::complete_due`]).
    pub net_forced_completions: u64,
}

impl ClusterStats {
    /// Mean utilisation over processes.
    pub fn mean_utilization(&self) -> f64 {
        if self.procs.is_empty() {
            return 1.0;
        }
        self.procs.iter().map(|p| p.utilization()).sum::<f64>() / self.procs.len() as f64
    }

    /// Recoveries whose victim was actually alive (false-positive restarts
    /// — the cost of a too-eager failure detector).
    pub fn false_positive_recoveries(&self) -> usize {
        self.recoveries.iter().filter(|r| r.false_positive).count()
    }

    /// Mean interval between migrations over `span` seconds.
    pub fn migration_interval(&self, span: f64) -> Option<f64> {
        if self.migrations.is_empty() {
            None
        } else {
            Some(span / self.migrations.len() as f64)
        }
    }

    /// Publishes the run's aggregates into a [`MetricsRegistry`] under
    /// `{prefix}.`: run-level counters, utilisation/time gauges, and
    /// latency histograms for recoveries and migrations.
    pub fn publish(&self, reg: &MetricsRegistry, prefix: &str) {
        reg.counter_add(
            &format!("{prefix}.checkpoint_rounds"),
            self.checkpoint_rounds,
        );
        reg.counter_add(&format!("{prefix}.net_messages"), self.net_messages);
        reg.counter_add(&format!("{prefix}.net_errors"), self.net_errors);
        reg.counter_add(&format!("{prefix}.net_losses"), self.net_losses);
        reg.counter_add(
            &format!("{prefix}.rendezvous_staged"),
            self.rendezvous_staged,
        );
        reg.counter_add(&format!("{prefix}.host_crashes"), self.host_crashes);
        reg.counter_add(&format!("{prefix}.host_reboots"), self.host_reboots);
        reg.counter_add(&format!("{prefix}.host_freezes"), self.host_freezes);
        reg.counter_add(&format!("{prefix}.bus_bursts"), self.bus_bursts);
        reg.counter_add(&format!("{prefix}.partitions"), self.partitions);
        reg.counter_add(
            &format!("{prefix}.msg_fault_windows"),
            self.msg_fault_windows,
        );
        reg.counter_add(&format!("{prefix}.tx.data_sent"), self.transport.data_sent);
        reg.counter_add(
            &format!("{prefix}.tx.retransmits"),
            self.transport.retransmits,
        );
        reg.counter_add(&format!("{prefix}.tx.acks_sent"), self.transport.acks_sent);
        reg.counter_add(
            &format!("{prefix}.tx.acks_received"),
            self.transport.acks_received,
        );
        reg.counter_add(&format!("{prefix}.tx.late_acks"), self.transport.late_acks);
        reg.counter_add(
            &format!("{prefix}.tx.dup_suppressed"),
            self.transport.dup_suppressed,
        );
        reg.counter_add(&format!("{prefix}.tx.give_ups"), self.transport.give_ups);
        reg.counter_add(
            &format!("{prefix}.tx.injected_losses"),
            self.transport.injected_losses,
        );
        reg.counter_add(
            &format!("{prefix}.tx.partition_drops"),
            self.transport.partition_drops,
        );
        reg.counter_add(
            &format!("{prefix}.tx.probes_sent"),
            self.transport.probes_sent,
        );
        reg.counter_add(
            &format!("{prefix}.tx.probe_replies"),
            self.transport.probe_replies,
        );
        reg.counter_add(
            &format!("{prefix}.delivery_failures"),
            self.delivery_failures.len() as u64,
        );
        reg.counter_add(
            &format!("{prefix}.duplicate_halo_applies"),
            self.duplicate_halo_applies,
        );
        reg.counter_add(
            &format!("{prefix}.out_of_order_consumes"),
            self.out_of_order_consumes,
        );
        reg.gauge_set(
            &format!("{prefix}.suspicion_peak"),
            self.suspicion_peak,
            "phi",
        );
        reg.counter_add(
            &format!("{prefix}.migrations"),
            self.migrations.len() as u64,
        );
        reg.counter_add(
            &format!("{prefix}.recoveries"),
            self.recoveries.len() as u64,
        );
        reg.gauge_set(&format!("{prefix}.finished_at"), self.finished_at, "s");
        reg.gauge_set(&format!("{prefix}.net_bytes"), self.net_bytes, "bytes");
        reg.gauge_set(&format!("{prefix}.net_busy"), self.net_busy, "s");
        reg.gauge_set(
            &format!("{prefix}.peak_queue_events"),
            self.peak_queue_events as f64,
            "events",
        );
        reg.gauge_set(
            &format!("{prefix}.peak_net_transfers"),
            self.peak_net_transfers as f64,
            "transfers",
        );
        reg.gauge_set(
            &format!("{prefix}.engine_bytes"),
            self.engine_bytes as f64,
            "bytes",
        );
        reg.counter_add(
            &format!("{prefix}.net_forced_completions"),
            self.net_forced_completions,
        );
        reg.gauge_set(
            &format!("{prefix}.checkpoint_pause_total"),
            self.checkpoint_pause_total,
            "s",
        );
        reg.gauge_set(
            &format!("{prefix}.mean_utilization"),
            self.mean_utilization(),
            "ratio",
        );
        reg.gauge_set(
            &format!("{prefix}.max_observed_skew"),
            self.max_observed_skew as f64,
            "steps",
        );
        for r in &self.recoveries {
            reg.histogram_observe(
                &format!("{prefix}.detection_latency"),
                r.detection_latency(),
                "s",
            );
            reg.histogram_observe(&format!("{prefix}.downtime"), r.downtime(), "s");
            reg.histogram_observe(
                &format!("{prefix}.lost_steps"),
                r.lost_steps as f64,
                "steps",
            );
        }
        for m in &self.migrations {
            reg.histogram_observe(
                &format!("{prefix}.migration_pause"),
                m.pause_duration(),
                "s",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_definition() {
        let p = ProcStats {
            t_calc: 8.0,
            t_com: 2.0,
            t_paused: 1.0,
            steps: 20,
        };
        assert!((p.utilization() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn recovery_latencies() {
        let r = RecoveryRecord {
            proc_id: 2,
            from_host: 4,
            to_host: 9,
            fault_time: 400.0,
            detect_time: 435.0,
            resume_time: 470.0,
            rollback_step: 1000,
            lost_steps: 180,
            false_positive: false,
        };
        assert_eq!(r.detection_latency(), 35.0);
        assert_eq!(r.downtime(), 70.0);
    }

    #[test]
    fn publish_exports_counters_gauges_and_histograms() {
        let mut s = ClusterStats {
            checkpoint_rounds: 3,
            finished_at: 12.5,
            ..Default::default()
        };
        s.recoveries.push(RecoveryRecord {
            proc_id: 0,
            from_host: 0,
            to_host: 1,
            fault_time: 1.0,
            detect_time: 2.0,
            resume_time: 4.0,
            rollback_step: 10,
            lost_steps: 5,
            false_positive: false,
        });
        let reg = MetricsRegistry::new();
        s.publish(&reg, "cluster");
        assert_eq!(reg.counter("cluster.checkpoint_rounds"), Some(3));
        assert_eq!(reg.counter("cluster.recoveries"), Some(1));
        assert_eq!(reg.gauge("cluster.finished_at"), Some(12.5));
        let h = reg
            .histogram("cluster.downtime")
            .expect("downtime histogram");
        assert_eq!(h.count, 1);
    }

    #[test]
    fn publish_exports_transport_counters() {
        let mut s = ClusterStats {
            partitions: 1,
            ..Default::default()
        };
        s.transport.data_sent = 40;
        s.transport.retransmits = 7;
        s.transport.give_ups = 2;
        s.suspicion_peak = 8.5;
        s.delivery_failures.push(DeliveryFailureRecord {
            from_proc: 0,
            to_proc: 1,
            step: 12,
            xch: 0,
            at: 30.0,
            attempts: 8,
        });
        let reg = MetricsRegistry::new();
        s.publish(&reg, "cluster");
        assert_eq!(reg.counter("cluster.tx.data_sent"), Some(40));
        assert_eq!(reg.counter("cluster.tx.retransmits"), Some(7));
        assert_eq!(reg.counter("cluster.tx.give_ups"), Some(2));
        assert_eq!(reg.counter("cluster.delivery_failures"), Some(1));
        assert_eq!(reg.counter("cluster.partitions"), Some(1));
        assert_eq!(reg.gauge("cluster.suspicion_peak"), Some(8.5));
    }

    #[test]
    fn false_positive_recoveries_are_counted() {
        let mut s = ClusterStats::default();
        let rec = RecoveryRecord {
            proc_id: 0,
            from_host: 0,
            to_host: 1,
            fault_time: 1.0,
            detect_time: 2.0,
            resume_time: 4.0,
            rollback_step: 10,
            lost_steps: 5,
            false_positive: false,
        };
        s.recoveries.push(rec);
        s.recoveries.push(RecoveryRecord {
            false_positive: true,
            ..rec
        });
        assert_eq!(s.false_positive_recoveries(), 1);
    }

    #[test]
    fn migration_durations() {
        let m = MigrationRecord {
            proc_id: 0,
            from_host: 1,
            to_host: 2,
            signal_time: 100.0,
            pause_time: 110.0,
            resume_time: 140.0,
        };
        assert_eq!(m.pause_duration(), 30.0);
        assert_eq!(m.total_duration(), 40.0);
    }
}

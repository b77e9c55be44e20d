//! Hypervisor steal time, the largest source of run-to-run noise on a
//! shared virtual machine.
//!
//! When the host is oversubscribed, the hypervisor runs other guests on
//! this guest's CPUs while it has work to do, and every thread of the
//! benchmark slows by about the stolen share. The benchmark scales its
//! wall-clock timings by `1 − share`, which leaves them unchanged on a
//! host that steals nothing.

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
pub struct HostCpu {
    steal: u64,
    /// user + nice + system + irq + softirq (guest time is inside user/nice).
    busy: u64,
}

impl HostCpu {
    pub fn read() -> Self {
        let f: Vec<u64> = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(str::to_owned))
            .map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        let at = |i: usize| f.get(i).copied().unwrap_or(0);
        HostCpu {
            steal: at(7),
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
        }
    }

    /// Share of the time the guest's CPUs had work to run that the
    /// hypervisor gave to someone else.
    pub fn steal_share_since(&self, start: &HostCpu) -> f64 {
        let steal = self.steal.saturating_sub(start.steal) as f64;
        let busy = self.busy.saturating_sub(start.busy) as f64;
        if steal + busy == 0.0 {
            0.0
        } else {
            steal / (steal + busy)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_counts_only_time_the_guest_wanted_to_run() {
        let start = HostCpu {
            steal: 100,
            busy: 1000,
        };
        let end = HostCpu {
            steal: 130,
            busy: 1090,
        };
        assert!((end.steal_share_since(&start) - 0.25).abs() < 1e-12);
        assert_eq!(start.steal_share_since(&start), 0.0);
        assert!(HostCpu::read().steal_share_since(&HostCpu::read()) >= 0.0);
    }
}

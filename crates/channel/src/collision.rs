//! Shared-medium collision resolution with physical-layer capture.
//!
//! A contention cell puts several transmitters on one channel; when two or
//! more overlap in a slot, the receiver does not necessarily lose
//! everything. The standard capture model (the dense-deployment analysis
//! of Michaloliakos et al. uses the same shape) says the *strongest*
//! arrival survives if its signal-to-interference-plus-noise ratio clears
//! a capture margin; otherwise every overlapping packet is destroyed.
//!
//! [`resolve_slot`] is that model as a pure function: given the linear
//! power gain each simultaneous transmission arrives with (the
//! [`ChannelModel::packet_gain`](crate::ChannelModel::packet_gain) of its
//! link realization) and the receiver noise power, it classifies the slot.
//! Determinism is inherited from the inputs — the gains are pure functions
//! of seed-addressed realizations, so cell sweeps stay bit-identical for
//! any thread count.

use crate::SnrDb;

/// One simultaneous transmission as the capture model sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxPower {
    /// The transmitting node's index within its cell.
    pub node: usize,
    /// Linear received power gain of this packet (transmit power is unit,
    /// so this is `|h|²` for fading links and `1.0` for AWGN links).
    pub gain: f64,
}

/// How one slot's overlapping transmissions resolved at the receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlotOutcome {
    /// Nobody transmitted: the channel sat idle.
    Idle,
    /// Exactly one transmission: it proceeds at its own link SNR.
    Clean {
        /// The lone transmitter.
        node: usize,
    },
    /// Several transmissions overlapped, but the strongest cleared the
    /// capture margin: it survives with the other arrivals degrading it as
    /// interference; the rest are destroyed.
    Captured {
        /// The winning transmitter.
        node: usize,
        /// The winner's received power gain.
        gain: f64,
        /// Summed linear power of the losing arrivals — the interference
        /// the survivor must still decode through.
        interference: f64,
    },
    /// Several transmissions overlapped and none dominated: all destroyed.
    Collision,
}

impl SlotOutcome {
    /// The node whose packet reaches the receiver, if any.
    pub fn survivor(&self) -> Option<usize> {
        match *self {
            SlotOutcome::Clean { node } | SlotOutcome::Captured { node, .. } => Some(node),
            SlotOutcome::Idle | SlotOutcome::Collision => None,
        }
    }
}

/// Resolves one slot of overlapping transmissions into a [`SlotOutcome`]
/// under the capture threshold model.
///
/// The strongest arrival (gain ties broken toward the *first-listed*
/// transmitter, so the outcome is a deterministic function of the input
/// slice — pass transmitters in node order for lowest-node-wins ties)
/// survives iff its SINR `gain / (noise_power + Σ other gains)` is at
/// least `capture_db`; otherwise the slot is a full collision. A single
/// transmission is always [`SlotOutcome::Clean`] — whether it *decodes*
/// is the PHY's business, not the medium's.
///
/// # Panics
///
/// Panics if `noise_power` is not strictly positive or any gain is
/// negative — both indicate a units bug upstream.
pub fn resolve_slot(txs: &[TxPower], noise_power: f64, capture_db: f64) -> SlotOutcome {
    assert!(noise_power > 0.0, "noise power must be positive");
    assert!(
        txs.iter().all(|t| t.gain >= 0.0),
        "negative link gain is a units bug"
    );
    match txs {
        [] => SlotOutcome::Idle,
        [only] => SlotOutcome::Clean { node: only.node },
        _ => {
            let strongest = txs
                .iter()
                .copied()
                .reduce(|best, t| if t.gain > best.gain { t } else { best })
                .expect("non-empty by match arm"); // lint: allow(panic-policy) — the `_` arm only matches slices of len >= 2
            let interference: f64 = txs
                .iter()
                .filter(|t| t.node != strongest.node)
                .map(|t| t.gain)
                .sum();
            let sinr = strongest.gain / (noise_power + interference);
            if sinr >= SnrDb::new(capture_db).linear() {
                SlotOutcome::Captured {
                    node: strongest.node,
                    gain: strongest.gain,
                    interference,
                }
            } else {
                SlotOutcome::Collision
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOISE: f64 = 0.1; // 10 dB SNR for a unit-gain arrival

    #[test]
    fn empty_slot_is_idle() {
        assert_eq!(resolve_slot(&[], NOISE, 10.0), SlotOutcome::Idle);
    }

    #[test]
    fn single_transmission_is_clean() {
        let txs = [TxPower {
            node: 3,
            gain: 0.01,
        }];
        // Even a deeply faded lone packet reaches the receiver; decoding
        // it is the PHY's problem.
        assert_eq!(
            resolve_slot(&txs, NOISE, 10.0),
            SlotOutcome::Clean { node: 3 }
        );
    }

    #[test]
    fn equal_power_overlap_collides() {
        let txs = [
            TxPower { node: 0, gain: 1.0 },
            TxPower { node: 1, gain: 1.0 },
        ];
        // SINR ~ 0 dB, far below any sensible capture margin.
        assert_eq!(resolve_slot(&txs, NOISE, 10.0), SlotOutcome::Collision);
    }

    #[test]
    fn dominant_arrival_captures() {
        let txs = [
            TxPower { node: 0, gain: 4.0 },
            TxPower {
                node: 1,
                gain: 0.01,
            },
        ];
        // SINR = 4.0 / (0.1 + 0.01) ≈ 15.6 dB > 10 dB margin.
        match resolve_slot(&txs, NOISE, 10.0) {
            SlotOutcome::Captured {
                node,
                gain,
                interference,
            } => {
                assert_eq!(node, 0);
                assert!((gain - 4.0).abs() < 1e-12);
                assert!((interference - 0.01).abs() < 1e-12);
            }
            other => panic!("expected capture, got {other:?}"),
        }
    }

    #[test]
    fn capture_threshold_is_respected() {
        let txs = [
            TxPower { node: 0, gain: 1.0 },
            TxPower { node: 1, gain: 0.2 },
        ];
        // SINR = 1.0 / 0.3 ≈ 5.2 dB: captures at a 3 dB margin, collides
        // at a 10 dB margin.
        assert!(matches!(
            resolve_slot(&txs, NOISE, 3.0),
            SlotOutcome::Captured { node: 0, .. }
        ));
        assert_eq!(resolve_slot(&txs, NOISE, 10.0), SlotOutcome::Collision);
    }

    #[test]
    fn ties_break_toward_lowest_node() {
        let txs = [
            TxPower { node: 2, gain: 5.0 },
            TxPower { node: 1, gain: 5.0 },
        ];
        // Equal gains cannot capture over each other at any positive
        // margin, but the *strongest* pick must still be deterministic:
        // first occurrence wins the reduce.
        assert_eq!(resolve_slot(&txs, NOISE, 10.0), SlotOutcome::Collision);
        // With a tiny interferer added, the first-listed strongest wins.
        let txs = [
            TxPower { node: 2, gain: 5.0 },
            TxPower {
                node: 1,
                gain: 0.001,
            },
        ];
        assert_eq!(resolve_slot(&txs, NOISE, 10.0).survivor(), Some(2));
    }

    #[test]
    fn survivor_and_contended_accessors() {
        assert_eq!(SlotOutcome::Idle.survivor(), None);
        assert_eq!(SlotOutcome::Collision.survivor(), None);
        assert_eq!(SlotOutcome::Clean { node: 7 }.survivor(), Some(7));
    }

    #[test]
    #[should_panic(expected = "noise power")]
    fn zero_noise_rejected() {
        let _ = resolve_slot(&[], 0.0, 10.0);
    }
}

//! Error types for the memory controllers and recovery.

use crate::layout::DataAddr;
use anubis_crypto::{CounterError, CryptoError};
use anubis_itree::NodeId;
use anubis_nvm::{BlockAddr, NvmError};
use core::fmt;

/// Errors from the run-time data path.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemError {
    /// Device/persistence-domain failure.
    Nvm(NvmError),
    /// Cryptographic verification failure (ECC or data MAC).
    Crypto(CryptoError),
    /// Integrity-tree verification failure.
    Integrity {
        /// The node whose digest/MAC did not verify.
        node: NodeId,
        /// What the node was being checked against.
        against: IntegrityWitness,
    },
    /// Data address beyond the configured capacity.
    OutOfRange {
        /// Offending data address.
        addr: DataAddr,
        /// Data capacity in blocks.
        capacity_blocks: u64,
    },
    /// The controller's volatile state did not survive a crash or a
    /// restart and `recover()` has not rebuilt it yet (ASIT without its
    /// shadow tree). Nothing was staged or changed.
    RecoveryPending,
}

/// What a failed integrity check was verified against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntegrityWitness {
    /// The parent node's stored digest (Bonsai).
    ParentDigest,
    /// The on-chip root register (Bonsai top node).
    RootRegister,
    /// The node's own MAC against its parent counter (SGX-style).
    NodeMac,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Nvm(e) => write!(f, "nvm error: {e}"),
            MemError::Crypto(e) => write!(f, "crypto error: {e}"),
            MemError::Integrity { node, against } => {
                let w = match against {
                    IntegrityWitness::ParentDigest => "parent digest",
                    IntegrityWitness::RootRegister => "root register",
                    IntegrityWitness::NodeMac => "node MAC",
                };
                write!(f, "integrity violation at {node} (checked against {w})")
            }
            MemError::OutOfRange {
                addr,
                capacity_blocks,
            } => {
                write!(
                    f,
                    "data address {addr} beyond capacity of {capacity_blocks} blocks"
                )
            }
            MemError::RecoveryPending => {
                write!(f, "volatile controller state is gone: run recover() first")
            }
        }
    }
}

impl std::error::Error for MemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MemError::Nvm(e) => Some(e),
            MemError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl MemError {
    /// True when the op was cut short by a (simulated) power loss: the
    /// write is unacknowledged and the machine must crash and recover
    /// before touching the controller again.
    pub fn is_power_loss(&self) -> bool {
        matches!(self, MemError::Nvm(NvmError::PowerLost))
    }

    /// True when the error is a *detected* integrity/corruption failure —
    /// the typed outcomes the fault-injection harness accepts in place of
    /// correct data (never silent wrong data).
    pub fn is_detected_corruption(&self) -> bool {
        matches!(self, MemError::Crypto(_) | MemError::Integrity { .. })
    }
}

impl From<NvmError> for MemError {
    fn from(e: NvmError) -> Self {
        MemError::Nvm(e)
    }
}

impl From<CryptoError> for MemError {
    fn from(e: CryptoError) -> Self {
        MemError::Crypto(e)
    }
}

/// Errors from post-crash recovery.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecoveryError {
    /// The rebuilt tree's root does not match the on-chip register
    /// (Algorithm 1 line 20 / write-back loss detection).
    RootMismatch,
    /// The Shadow Table failed its own integrity tree check
    /// (Algorithm 2 line 2): tampered or corrupted shadow region.
    ShadowTableTampered,
    /// A recovered SGX node failed MAC verification against its parent
    /// counter (Algorithm 2 line 10).
    NodeMacMismatch {
        /// Address of the failing node.
        addr: BlockAddr,
    },
    /// Osiris could not find any counter within the stop-loss window that
    /// passes the ECC sanity check for a data line.
    CounterNotRecovered {
        /// Address of the unrecoverable data line.
        addr: BlockAddr,
    },
    /// The scheme fundamentally cannot recover this tree style (e.g.
    /// Osiris with an SGX tree whose interior nodes were lost).
    SchemeCannotRecover {
        /// Explanation of the structural limitation.
        reason: &'static str,
    },
    /// Replaying Osiris trials hit the stop-loss / minor-overflow
    /// boundary for a counter block — the stale block read from NVM is
    /// corrupted (a correct persist schedule never loses that many
    /// updates).
    StopLossExceeded {
        /// The counter block (leaf index) being repaired.
        leaf: u64,
        /// The underlying counter-arithmetic error.
        source: CounterError,
    },
    /// A verified shadow table tracked more distinct nodes than the
    /// metadata cache can hold — impossible for a shadow table written by
    /// this controller, so it indicates NVM corruption that slipped past
    /// (or colluded with) the shadow-root check. Surfaced as an error
    /// rather than a panic so a torn write can never abort recovery.
    ShadowCapacityExceeded {
        /// Address of the node that did not fit.
        addr: BlockAddr,
    },
    /// A data line failed read verification during the recovery
    /// supervisor's scrub pass (after the fast path already succeeded or
    /// was repaired) — the hint handed to targeted repair.
    ScrubFailed {
        /// The failing data line.
        addr: DataAddr,
    },
    /// A reopened device image carried a corrupted persistent structure
    /// (e.g. a quarantine table whose header or payload failed to parse).
    /// Non-structural: the controller proceeds with a fresh copy of the
    /// structure and the supervisor feeds this hint into targeted repair
    /// (the `targeted` rung) to rebuild whatever the corrupt structure
    /// protected.
    CorruptImage {
        /// Which persistent structure failed to parse.
        what: &'static str,
    },
    /// The reopened image is *older* than the sealed freshness anchor:
    /// durable state was rolled back to an earlier internally-consistent
    /// version between death and restart. Unlike corruption this state
    /// verifies perfectly — only the anchor proves it is stale — so the
    /// supervisor refuses recovery outright rather than repairing into
    /// serving it.
    RollbackDetected {
        /// Epoch the sealed anchor proves the device reached.
        anchored_epoch: u64,
        /// Older epoch the reopened image carries.
        image_epoch: u64,
    },
    /// The freshness anchor itself is missing or corrupt, so the image's
    /// epoch cannot be verified. Conservative refusal under the strict
    /// policy; resolvable only by the explicit operator override
    /// (`ANUBIS_ANCHOR_OVERRIDE=1`), never by silent default-epoch
    /// acceptance.
    FreshnessAnchorViolation {
        /// What happened to the anchor (`"anchor missing"` /
        /// `"anchor corrupt"`).
        what: &'static str,
        /// The unverifiable epoch the image carries.
        image_epoch: u64,
    },
    /// The home area — blocks at rest outside the log — does not hold
    /// what its log says it held: a slot flipped, rolled back or dropped
    /// where no frame of the log rewrites it. Checked before any rung
    /// that re-anchors metadata to what the medium holds, which would
    /// otherwise make such a slot verify; refused like a rollback.
    HomeAreaMismatch {
        /// What the backend's check found, rendered.
        reason: String,
    },
    /// Device failure during recovery.
    Nvm(NvmError),
}

impl RecoveryError {
    /// True for freshness refusals: errors that mean the durable state
    /// must not be served *even though it may verify perfectly* — the
    /// supervisor returns them immediately instead of escalating, and
    /// they are distinct from `Degraded` outcomes (which preserve
    /// committed data) and from structural errors (which mean the scheme
    /// cannot recover).
    pub fn is_refusal(&self) -> bool {
        matches!(
            self,
            RecoveryError::RollbackDetected { .. }
                | RecoveryError::FreshnessAnchorViolation { .. }
                | RecoveryError::HomeAreaMismatch { .. }
        )
    }
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::RootMismatch => {
                write!(
                    f,
                    "rebuilt tree root does not match the on-chip root register"
                )
            }
            RecoveryError::ShadowTableTampered => {
                write!(f, "shadow table failed SHADOW_TREE_ROOT verification")
            }
            RecoveryError::NodeMacMismatch { addr } => {
                write!(f, "recovered node at {addr} failed MAC verification")
            }
            RecoveryError::CounterNotRecovered { addr } => {
                write!(
                    f,
                    "no counter candidate passed the ECC check for data line {addr}"
                )
            }
            RecoveryError::SchemeCannotRecover { reason } => {
                write!(f, "scheme cannot recover: {reason}")
            }
            RecoveryError::StopLossExceeded { leaf, source } => {
                write!(f, "counter block {leaf} is corrupted: {source}")
            }
            RecoveryError::ShadowCapacityExceeded { addr } => {
                write!(
                    f,
                    "shadow table tracks more nodes than the metadata cache holds \
                     (node at {addr} does not fit)"
                )
            }
            RecoveryError::ScrubFailed { addr } => {
                write!(f, "data line {addr} failed verification during scrub")
            }
            RecoveryError::CorruptImage { what } => {
                write!(f, "reopened device image has a corrupt {what}")
            }
            RecoveryError::RollbackDetected {
                anchored_epoch,
                image_epoch,
            } => {
                write!(
                    f,
                    "rollback detected: image at epoch {image_epoch} is older than the \
                     sealed freshness anchor (epoch {anchored_epoch})"
                )
            }
            RecoveryError::FreshnessAnchorViolation { what, image_epoch } => {
                write!(
                    f,
                    "freshness {what}: image epoch {image_epoch} cannot be verified \
                     against the sealed anchor"
                )
            }
            RecoveryError::HomeAreaMismatch { reason } => {
                write!(f, "home area refused before repair: {reason}")
            }
            RecoveryError::Nvm(e) => write!(f, "nvm error during recovery: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Nvm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NvmError> for RecoveryError {
    fn from(e: NvmError) -> Self {
        RecoveryError::Nvm(e)
    }
}

/// Maps a backend's freshness-anchor verdict to the recovery refusal it
/// implies, if any. `Untracked`, `Fresh`, and explicitly `Overridden`
/// states carry no hint.
pub fn freshness_hint(f: anubis_nvm::Freshness) -> Option<RecoveryError> {
    match f {
        anubis_nvm::Freshness::RolledBack {
            anchored_epoch,
            image_epoch,
        } => Some(RecoveryError::RollbackDetected {
            anchored_epoch,
            image_epoch,
        }),
        anubis_nvm::Freshness::TailForged {
            anchored_epoch: _,
            image_epoch,
        } => Some(RecoveryError::FreshnessAnchorViolation {
            what: "tail forged (frames appended beyond the one-barrier crash window)",
            image_epoch,
        }),
        anubis_nvm::Freshness::AnchorMissing { image_epoch } => {
            Some(RecoveryError::FreshnessAnchorViolation {
                what: "anchor missing",
                image_epoch,
            })
        }
        anubis_nvm::Freshness::AnchorCorrupt { image_epoch } => {
            Some(RecoveryError::FreshnessAnchorViolation {
                what: "anchor corrupt",
                image_epoch,
            })
        }
        anubis_nvm::Freshness::Untracked
        | anubis_nvm::Freshness::Fresh { .. }
        | anubis_nvm::Freshness::Overridden { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = MemError::Integrity {
            node: NodeId::new(2, 5),
            against: IntegrityWitness::RootRegister,
        };
        assert!(e.to_string().contains("L2#5"));
        assert!(RecoveryError::RootMismatch.to_string().contains("root"));
        let e = RecoveryError::NodeMacMismatch {
            addr: BlockAddr::new(0x40),
        };
        assert!(e.to_string().contains("0x40"));
    }

    #[test]
    fn conversions() {
        let n = NvmError::PoweredOff;
        assert_eq!(MemError::from(n.clone()), MemError::Nvm(n.clone()));
        assert_eq!(RecoveryError::from(n.clone()), RecoveryError::Nvm(n));
        let c = CryptoError::EccMismatch;
        assert_eq!(MemError::from(c.clone()), MemError::Crypto(c));
    }
}

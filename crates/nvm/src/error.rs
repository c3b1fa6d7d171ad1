//! Error types for the persistence domain.

use crate::addr::BlockAddr;
use core::fmt;

/// Errors raised by the NVM persistence domain.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum NvmError {
    /// An access fell outside the device capacity.
    OutOfRange {
        /// The offending address.
        addr: BlockAddr,
        /// Device capacity in blocks.
        capacity_blocks: u64,
    },
    /// A commit group exceeded the capacity of the persistent registers.
    CommitGroupTooLarge {
        /// Number of write operations in the rejected group.
        group_len: usize,
        /// Capacity of the persistent register file.
        capacity: usize,
    },
    /// The domain is powered off; it must be recovered before use.
    PoweredOff,
    /// An injected fault cut power mid-operation. The controller must
    /// propagate this without caching inconsistent state; the domain
    /// requires [`crate::PersistenceDomain::power_up`] before further use.
    PowerLost,
    /// The storage backend behind the device failed — an I/O error or a
    /// corrupt on-disk image for [`crate::FileBackend`].
    Backend {
        /// Human-readable cause, including the image path when known.
        reason: String,
    },
}

impl fmt::Display for NvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NvmError::OutOfRange { addr, capacity_blocks } => write!(
                f,
                "block address {addr} outside device capacity of {capacity_blocks} blocks"
            ),
            NvmError::CommitGroupTooLarge { group_len, capacity } => write!(
                f,
                "commit group of {group_len} writes exceeds the {capacity}-entry persistent register file"
            ),
            NvmError::PoweredOff => write!(f, "persistence domain is powered off"),
            NvmError::PowerLost => {
                write!(f, "power lost mid-operation by an injected fault")
            }
            NvmError::Backend { reason } => write!(f, "storage backend: {reason}"),
        }
    }
}

impl std::error::Error for NvmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = NvmError::OutOfRange {
            addr: BlockAddr::new(10),
            capacity_blocks: 4,
        };
        assert!(e.to_string().contains("0xa"));
        let e = NvmError::CommitGroupTooLarge {
            group_len: 99,
            capacity: 64,
        };
        assert!(e.to_string().contains("99"));
        assert!(NvmError::PoweredOff.to_string().contains("powered off"));
        assert!(NvmError::PowerLost.to_string().contains("power lost"));
    }
}

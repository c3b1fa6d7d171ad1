//! Error types for the cryptographic data path.

use core::fmt;

/// Errors raised by the secure data path.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// Decryption succeeded mechanically but the plaintext failed its
    /// ECC sanity check — either the counter used was wrong (stale
    /// metadata) or the ciphertext was corrupted.
    EccMismatch,
    /// The data MAC over (plaintext, counter, address) did not verify —
    /// tampering or a replayed counter.
    DataMacMismatch,
    /// The SEC-DED decoder found a multi-bit error it cannot repair —
    /// the stored block is corrupted beyond the code's reach and must
    /// not be served as data.
    UncorrectableEcc,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::EccMismatch => write!(f, "plaintext failed ECC sanity check"),
            CryptoError::DataMacMismatch => write!(f, "data MAC verification failed"),
            CryptoError::UncorrectableEcc => {
                write!(f, "multi-bit corruption beyond SEC-DED correction")
            }
        }
    }
}

impl std::error::Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(CryptoError::EccMismatch.to_string().contains("ECC"));
        assert!(CryptoError::DataMacMismatch.to_string().contains("MAC"));
        assert!(CryptoError::UncorrectableEcc
            .to_string()
            .contains("SEC-DED"));
    }
}

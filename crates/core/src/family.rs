//! The two recoverable controller families behind one name.

use anubis_nvm::NvmBackend;

use crate::{
    AnubisConfig, BonsaiController, BonsaiScheme, RecoveryError, SgxController, SgxScheme,
    Supervised,
};

/// The paper's two recoverable schemes, one per tree style — what a
/// served tenant, a restart drill or an adversary campaign runs over a
/// durable image. The only place that names the two `reopen`
/// constructors side by side: a harness that takes a `Family` runs a
/// third scheme the day this enum grows a variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Bonsai-style general Merkle tree under AGIT-Plus.
    BonsaiAgitPlus,
    /// SGX-style counter tree under ASIT.
    SgxAsit,
}

/// A reopened controller of either family.
pub type Reopened<B> = Box<dyn Supervised<Backend = B> + Send>;

impl Family {
    /// Stable identifier: child command lines, reports, and the label
    /// the campaigns hash into their per-family seeds.
    pub fn name(self) -> &'static str {
        match self {
            Family::BonsaiAgitPlus => "bonsai-agit-plus",
            Family::SgxAsit => "sgx-asit",
        }
    }

    /// Parses [`Family::name`] or one of the short spellings tenant
    /// rosters use (`bonsai` / `agit-plus`, `sgx` / `asit`).
    pub fn parse(s: &str) -> Option<Family> {
        match s {
            "bonsai" | "bonsai-agit-plus" | "agit-plus" => Some(Family::BonsaiAgitPlus),
            "sgx" | "sgx-asit" | "asit" => Some(Family::SgxAsit),
            _ => None,
        }
    }

    /// Both families.
    pub fn all() -> [Family; 2] {
        [Family::BonsaiAgitPlus, Family::SgxAsit]
    }

    /// Reopens the family's controller over a durable `backend`, as
    /// [`BonsaiController::reopen`] / [`SgxController::reopen`] do; the
    /// second element is the corruption or freshness hint for
    /// [`crate::supervisor::resume`].
    pub fn reopen<B: NvmBackend + 'static>(
        self,
        config: &AnubisConfig,
        backend: B,
    ) -> (Reopened<B>, Option<RecoveryError>) {
        match self {
            Family::BonsaiAgitPlus => {
                let (c, hint) = BonsaiController::reopen(BonsaiScheme::AgitPlus, config, backend);
                (Box::new(c), hint)
            }
            Family::SgxAsit => {
                let (c, hint) = SgxController::reopen(SgxScheme::Asit, config, backend);
                (Box::new(c), hint)
            }
        }
    }
}

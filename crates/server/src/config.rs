//! Server configuration and the `ANUBIS_SERVE_*` environment knobs.

use std::path::PathBuf;
use std::time::Duration;

use anubis::AnubisConfig;

use crate::protocol::token_hash;

/// The controller family of a tenant's persistence domain.
pub use anubis::Family as TenantFamily;

/// Per-request deadline in ms when the client passes 0.
pub(crate) const DEFAULT_DEADLINE_MS: u32 = 1_000;

/// Hard cap on client-requested deadlines, in ms.
pub(crate) const MAX_DEADLINE_MS: u32 = 10_000;

/// Maximum frame payload bytes (1 MiB).
pub(crate) const MAX_FRAME_BYTES: u32 = 1 << 20;

/// One tenant's identity: name, session-token hash, controller family.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Tenant name (also the image file stem under the data dir).
    pub name: String,
    /// FNV-1a hash of the tenant's session token.
    pub token_hash: u64,
    /// Which controller family backs the tenant's domain.
    pub family: TenantFamily,
}

impl TenantSpec {
    /// Builds a spec from a plaintext token.
    pub fn new(name: &str, token: &str, family: TenantFamily) -> Self {
        TenantSpec {
            name: name.to_string(),
            token_hash: token_hash(token),
            family,
        }
    }
}

/// A configuration-parsing failure (bad env value or tenant spec).
#[derive(Debug)]
pub struct ConfigError {
    /// Which knob failed to parse.
    pub knob: &'static str,
    /// What was wrong.
    pub detail: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad {}: {}", self.knob, self.detail)
    }
}

impl std::error::Error for ConfigError {}

/// Everything the server needs to run. Defaults are production-shaped;
/// [`ServeConfig::from_env`] overrides the fields that name an
/// `ANUBIS_SERVE_*` knob, the others are set in code.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address (`ANUBIS_SERVE_ADDR`, default `127.0.0.1:0` — an
    /// ephemeral port, printed at startup).
    pub addr: String,
    /// Directory holding per-tenant device images
    /// (`ANUBIS_SERVE_DATA`, default `$TMPDIR/anubis-serve`).
    pub data_dir: PathBuf,
    /// Tenant roster (`ANUBIS_SERVE_TENANTS`,
    /// `name:token:family[,name:token:family...]`).
    pub tenants: Vec<TenantSpec>,
    /// Per-tenant concurrent-request cap (default 32). Exceeding it is
    /// a typed `Overloaded`, never a queue.
    pub max_inflight: u32,
    /// Per-tenant ops/s quota (`ANUBIS_SERVE_OPS_PER_SEC`, default
    /// 50 000).
    pub ops_per_sec: f64,
    /// Token-bucket burst capacity (`ANUBIS_SERVE_BURST`, default 256).
    pub burst: u32,
    /// Consecutive faults before the tenant's circuit breaker opens
    /// (default 5).
    pub breaker_threshold: u32,
    /// Breaker cooldown in ms before a half-open probe (default 250).
    pub breaker_cooldown_ms: u32,
    /// Idle budget before the first byte of a frame; a silent connection
    /// is closed after this (`ANUBIS_SERVE_IDLE_MS`, default 30 000).
    pub idle_ms: u32,
    /// Mid-frame stall budget — the slowloris guard
    /// (`ANUBIS_SERVE_STALL_MS`, default 2 000).
    pub stall_ms: u32,
    /// Explicit operator override for a missing or corrupt freshness
    /// anchor (`ANUBIS_ANCHOR_OVERRIDE=1`; default off). Never applies
    /// to a valid anchor proving rollback — that is always refused.
    pub anchor_override: bool,
    /// Controller geometry for every tenant domain.
    pub mem_config: AnubisConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: std::env::temp_dir().join("anubis-serve"),
            tenants: Vec::new(),
            max_inflight: 32,
            ops_per_sec: 50_000.0,
            burst: 256,
            breaker_threshold: 5,
            breaker_cooldown_ms: 250,
            idle_ms: 30_000,
            stall_ms: 2_000,
            anchor_override: false,
            mem_config: AnubisConfig::small_test(),
        }
    }
}

fn env_parse<T: std::str::FromStr>(knob: &'static str, into: &mut T) -> Result<(), ConfigError> {
    if let Ok(v) = std::env::var(knob) {
        *into = v.trim().parse().map_err(|_| ConfigError {
            knob,
            detail: format!("cannot parse {v:?}"),
        })?;
    }
    Ok(())
}

/// Parses a tenant roster string (`name:token:family,...`).
///
/// # Errors
///
/// [`ConfigError`] naming the offending entry.
pub fn parse_tenants(spec: &str) -> Result<Vec<TenantSpec>, ConfigError> {
    let mut out = Vec::new();
    for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
        let parts: Vec<&str> = entry.trim().split(':').collect();
        let bad = |detail: String| ConfigError {
            knob: "ANUBIS_SERVE_TENANTS",
            detail,
        };
        if parts.len() != 3 {
            return Err(bad(format!("entry {entry:?} is not name:token:family")));
        }
        let family = TenantFamily::parse(parts[2])
            .ok_or_else(|| bad(format!("unknown family {:?} in {entry:?}", parts[2])))?;
        if parts[0].is_empty() || parts[0].contains(['/', '\\']) {
            return Err(bad(format!("invalid tenant name {:?}", parts[0])));
        }
        out.push(TenantSpec::new(parts[0], parts[1], family));
    }
    if out.is_empty() {
        return Err(ConfigError {
            knob: "ANUBIS_SERVE_TENANTS",
            detail: "no tenants configured".to_string(),
        });
    }
    Ok(out)
}

impl ServeConfig {
    /// Builds a config from the defaults overridden by the
    /// `ANUBIS_SERVE_*` environment knobs.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] for an unparseable knob or tenant roster.
    pub fn from_env() -> Result<ServeConfig, ConfigError> {
        let mut c = ServeConfig::default();
        if let Ok(v) = std::env::var("ANUBIS_SERVE_ADDR") {
            c.addr = v;
        }
        if let Some(v) = std::env::var_os("ANUBIS_SERVE_DATA") {
            c.data_dir = PathBuf::from(v);
        }
        if let Ok(v) = std::env::var("ANUBIS_SERVE_TENANTS") {
            c.tenants = parse_tenants(&v)?;
        }
        env_parse("ANUBIS_SERVE_OPS_PER_SEC", &mut c.ops_per_sec)?;
        env_parse("ANUBIS_SERVE_BURST", &mut c.burst)?;
        env_parse("ANUBIS_SERVE_IDLE_MS", &mut c.idle_ms)?;
        env_parse("ANUBIS_SERVE_STALL_MS", &mut c.stall_ms)?;
        c.anchor_override = std::env::var("ANUBIS_ANCHOR_OVERRIDE").map(|v| v == "1") == Ok(true);
        Ok(c)
    }

    /// Clamps a client-requested deadline: 0 asks for
    /// `DEFAULT_DEADLINE_MS`, and none runs past `MAX_DEADLINE_MS`.
    pub fn effective_deadline(&self, requested_ms: u32) -> Duration {
        let ms = if requested_ms == 0 {
            DEFAULT_DEADLINE_MS
        } else {
            requested_ms.min(MAX_DEADLINE_MS)
        };
        Duration::from_millis(u64::from(ms.max(1)))
    }

    /// The device-image path for a tenant.
    pub fn image_path(&self, tenant: &str) -> PathBuf {
        self.data_dir.join(format!("{tenant}.wal"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_specs_parse() {
        let t = parse_tenants("a:s3cret:bonsai, b:tok:sgx").expect("parse");
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].name, "a");
        assert_eq!(t[0].family, TenantFamily::BonsaiAgitPlus);
        assert_eq!(t[0].token_hash, token_hash("s3cret"));
        assert_eq!(t[1].family, TenantFamily::SgxAsit);
    }

    #[test]
    fn bad_tenant_specs_are_typed() {
        assert!(parse_tenants("").is_err());
        assert!(parse_tenants("a:b").is_err());
        assert!(parse_tenants("a:b:martian").is_err());
        assert!(parse_tenants("../evil:b:bonsai").is_err());
    }

    #[test]
    fn deadlines_clamp() {
        let c = ServeConfig::default();
        assert_eq!(c.effective_deadline(0), Duration::from_millis(1_000));
        assert_eq!(c.effective_deadline(50), Duration::from_millis(50));
        assert_eq!(c.effective_deadline(99_999), Duration::from_millis(10_000));
    }
}

//! Plug-n-play system assembly (the AWB workflow of §2).
//!
//! The paper's platform lets users assemble a wireless system by *choosing
//! an implementation per slot* from a GUI rather than editing source.
//! [`WilisSystem`] is that workflow as an API: a registry of decoder
//! implementations keyed by name, a [`SystemConfig`] selecting one, and a
//! builder producing ready-to-run transmitter/receiver pairs.

use std::sync::Arc;

use wilis_fec::{BcjrDecoder, CompiledTrellis, ConvCode, SoftDecoder, SovaDecoder, ViterbiDecoder};
use wilis_lis::registry::{Params, Registry, RegistryError};
use wilis_phy::{Demapper, PhyRate, Receiver, SnrScaling, Transmitter};

/// A factory slot for soft decoders.
pub type DecoderSlot = Registry<Box<dyn SoftDecoder>>;

/// Selection of implementations and parameters for one simulation.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The PHY rate to run at.
    pub rate: PhyRate,
    /// Which registered decoder implementation to use.
    pub decoder: String,
    /// Demapper soft-output width (the SoftPHY path default is 5).
    pub demapper_bits: u32,
    /// Extra per-module parameters (forwarded to the decoder factory).
    pub params: Params,
}

impl SystemConfig {
    /// A config at `rate` using the named decoder with defaults.
    pub fn new(rate: PhyRate, decoder: &str) -> Self {
        Self {
            rate,
            decoder: decoder.to_string(),
            demapper_bits: 5,
            params: Params::new(),
        }
    }
}

/// The plug-n-play system: decoder registry plus builders.
///
/// One [`CompiledTrellis`] for the 802.11 code is built at system
/// construction and shared (via `Arc`) by every stock decoder the system
/// instantiates — the scenario engine's receive chains and its oracle
/// therefore reuse one trellis lowering per system instead of
/// recompiling tables per decoder.
pub struct WilisSystem {
    decoders: DecoderSlot,
    compiled: Arc<CompiledTrellis>,
}

/// Whether `name` is one of the decoders [`WilisSystem::new`] registers.
/// A stock decoder is a pure function of its name and rate, so the
/// scenario engine lets every point decoding with it share one receive
/// chain, across points and across packed streams. A user registration
/// under a stock name inherits that contract.
pub(crate) fn is_stock_decoder(name: &str) -> bool {
    matches!(name, "viterbi" | "sova" | "bcjr")
}

impl WilisSystem {
    /// A system with the stock implementations registered: `"viterbi"`,
    /// `"sova"` (params: `tu1`, `tu2`), `"bcjr"` (param: `block`).
    pub fn new() -> Self {
        let compiled = Arc::new(CompiledTrellis::new(&ConvCode::ieee80211()));
        let mut decoders: DecoderSlot = Registry::new("decoder");
        let shared = Arc::clone(&compiled);
        decoders.register("viterbi", move |_| {
            Box::new(ViterbiDecoder::with_shared_trellis(Arc::clone(&shared)))
        });
        let shared = Arc::clone(&compiled);
        decoders.register("sova", move |p| {
            let l = p.get_u64("tu1").unwrap_or(64) as usize;
            let k = p.get_u64("tu2").unwrap_or(64) as usize;
            Box::new(SovaDecoder::with_shared_trellis(Arc::clone(&shared), l, k))
        });
        let shared = Arc::clone(&compiled);
        decoders.register("bcjr", move |p| {
            let n = p.get_u64("block").unwrap_or(64) as usize;
            Box::new(BcjrDecoder::with_shared_trellis(Arc::clone(&shared), n))
        });
        Self { decoders, compiled }
    }

    /// The system's shared compiled 802.11 trellis — one table build
    /// serving every stock decoder this system creates (and the scenario
    /// engine's oracle receiver).
    pub fn compiled_ieee80211(&self) -> Arc<CompiledTrellis> {
        Arc::clone(&self.compiled)
    }

    /// The decoder registry, for registering user implementations
    /// alongside the stock ones (the paper's "users may also wish to use
    /// their own modules in combination with existing ones").
    pub fn decoders_mut(&mut self) -> &mut DecoderSlot {
        &mut self.decoders
    }

    /// Names of all registered decoder implementations.
    pub fn decoder_names(&self) -> Vec<String> {
        self.decoders.names()
    }

    /// Builds the transmitter for a config.
    pub fn transmitter(&self, config: &SystemConfig) -> Transmitter {
        Transmitter::new(config.rate)
    }

    /// Builds the receiver for a config.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError`] when the named decoder is not registered.
    pub fn receiver(&self, config: &SystemConfig) -> Result<Receiver, RegistryError> {
        let decoder = self.decoders.build(&config.decoder, &config.params)?;
        let demapper = Demapper::new(
            config.rate.modulation(),
            config.demapper_bits,
            SnrScaling::Off,
        );
        Ok(Receiver::new(config.rate, demapper, decoder))
    }
}

impl Default for WilisSystem {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for WilisSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WilisSystem(decoders: {})",
            self.decoder_names().join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wilis_phy::PhyRate;

    #[test]
    fn stock_decoders_registered() {
        let sys = WilisSystem::new();
        assert_eq!(sys.decoder_names(), vec!["bcjr", "sova", "viterbi"]);
    }

    #[test]
    fn build_and_roundtrip_each_decoder() {
        let sys = WilisSystem::new();
        let payload: Vec<u8> = (0..200).map(|i| (i % 2) as u8).collect();
        for name in ["viterbi", "sova", "bcjr"] {
            let cfg = SystemConfig::new(PhyRate::QpskHalf, name);
            let tx = sys.transmitter(&cfg).transmit(&payload, 0x5D);
            let mut rx = sys.receiver(&cfg).unwrap();
            let got = rx.receive(&tx.samples, payload.len(), 0x5D);
            assert_eq!(got.bit_errors(&payload), 0, "{name}");
        }
    }

    #[test]
    fn unknown_decoder_is_an_error() {
        let sys = WilisSystem::new();
        let cfg = SystemConfig::new(PhyRate::BpskHalf, "turbo");
        let err = sys.receiver(&cfg).unwrap_err();
        assert!(err.to_string().contains("turbo"));
    }

    #[test]
    fn stock_decoders_share_one_compiled_trellis() {
        let sys = WilisSystem::new();
        let shared = sys.compiled_ieee80211();
        // Factory-built decoders hold handles to the same tables: the
        // system handle plus three decoders inside the receivers.
        let before = Arc::strong_count(&shared);
        let _rx = sys
            .receiver(&SystemConfig::new(PhyRate::QpskHalf, "viterbi"))
            .unwrap();
        assert_eq!(Arc::strong_count(&shared), before + 1);
    }

    #[test]
    fn user_decoder_plugs_in() {
        let mut sys = WilisSystem::new();
        sys.decoders_mut().register("my-viterbi", |_| {
            Box::new(ViterbiDecoder::new(&ConvCode::ieee80211()))
        });
        let cfg = SystemConfig::new(PhyRate::BpskHalf, "my-viterbi");
        assert!(sys.receiver(&cfg).is_ok());
    }

    #[test]
    fn params_reach_the_factory() {
        let sys = WilisSystem::new();
        let mut cfg = SystemConfig::new(PhyRate::BpskHalf, "sova");
        cfg.params.set("tu1", "32").set("tu2", "16");
        // Builds fine; window parameters are decoder-internal. The
        // registry path is what this exercises.
        assert!(sys.receiver(&cfg).is_ok());
    }
}

//! End-to-end transmit and receive pipelines (the Figure 1 chains, in
//! functional form).

use wilis_fec::{
    BcjrDecoder, CompiledTrellis, ConvCode, ConvEncoder, DecodeOutput, Depuncturer, Llr, Puncturer,
    SoftDecoder, SovaDecoder, ViterbiDecoder, MAX_BATCH_LANES,
};
use wilis_fxp::Cplx;

use crate::demapper::{Demapper, SnrScaling};
use crate::interleave::{Deinterleaver, Interleaver};
use crate::mapper::Mapper;
use crate::ofdm::{OfdmDemodulator, OfdmModulator, SYMBOL_LEN};
use crate::packet::{PacketBuilder, PacketFields, SERVICE_BITS, TAIL_BITS};
use crate::rate::PhyRate;

/// Reusable working memory for the TX and RX chains.
///
/// One `PhyScratch` per worker turns [`Transmitter::tx_into`] and
/// [`Receiver::rx_from`] into allocation-free operations in the steady
/// state: every intermediate buffer — coded bits, interleaved symbols,
/// constellation points, LLR streams, decoder output — is retained and
/// reused between packets. Nothing in it depends on the rate: the one
/// encoder serves every rate (the mother code is rate-independent), and
/// the interleaver permutations and constellation tables are
/// process-wide, so a chain that changes rate packet by packet builds
/// no per-rate state.
#[derive(Debug, Clone)]
pub struct PhyScratch {
    encoder: ConvEncoder,
    ofdm_tx: OfdmModulator,
    ofdm_rx: OfdmDemodulator,
    data_bits: Vec<u8>,
    coded: Vec<u8>,
    punctured: Vec<u8>,
    interleaved: Vec<u8>,
    /// One symbol of constellation points (reference path).
    points: Vec<Cplx>,
    /// A whole packet of constellation points (planned TX streaming).
    packet_points: Vec<Cplx>,
    /// Recovered data carriers: a whole lane-major block on the lane
    /// path, one symbol at a time on the reference path.
    carriers: Vec<Cplx>,
    /// Demapped LLRs: a whole lane-major block on the lane path, one
    /// symbol at a time on the reference path.
    symbol_llrs: Vec<Llr>,
    punctured_llrs: Vec<Llr>,
    mother: Vec<Llr>,
    /// Per-lane decoder outputs; only ever grown, so a change of lane
    /// count keeps every lane's buffers.
    decoded_lanes: Vec<DecodeOutput>,
}

impl PhyScratch {
    /// Empty scratch; buffers are sized lazily on first use, except the
    /// one-symbol interleave buffer, sized for the widest symbol of any
    /// rate so a chain whose rate moves up never grows it.
    pub fn new() -> Self {
        let widest_symbol = PhyRate::all()
            .iter()
            .map(|r| r.coded_bits_per_symbol())
            .max()
            .unwrap_or(0);
        Self {
            encoder: ConvEncoder::new(&ConvCode::ieee80211()),
            ofdm_tx: OfdmModulator::new(),
            ofdm_rx: OfdmDemodulator::new(),
            data_bits: Vec::new(),
            coded: Vec::new(),
            punctured: Vec::new(),
            interleaved: Vec::with_capacity(widest_symbol),
            points: Vec::new(),
            packet_points: Vec::new(),
            carriers: Vec::new(),
            symbol_llrs: Vec::new(),
            punctured_llrs: Vec::new(),
            mother: Vec::new(),
            decoded_lanes: Vec::new(),
        }
    }
}

impl Default for PhyScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The first `lanes` decoder outputs of `decoded`, grown on first need.
fn lane_outputs(decoded: &mut Vec<DecodeOutput>, lanes: usize) -> &mut [DecodeOutput] {
    if decoded.len() < lanes {
        decoded.resize_with(lanes, DecodeOutput::default);
    }
    &mut decoded[..lanes]
}

/// The transmit pipeline: scramble → encode → puncture → interleave → map
/// → OFDM modulate.
#[derive(Debug, Clone, Copy)]
pub struct Transmitter {
    rate: PhyRate,
    /// Puncture-mask phase (see [`Puncturer::with_phase`]); 0 is the
    /// standard 802.11a pattern, nonzero phases are HARQ incremental
    /// redundancy retransmissions.
    phase: usize,
}

/// A transmitted packet: its baseband samples and layout.
#[derive(Debug, Clone)]
pub struct TxResult {
    /// Time-domain baseband samples (80 per OFDM symbol).
    pub samples: Vec<Cplx>,
    /// The packet layout (needed by the receiver).
    pub fields: PacketFields,
    /// Payload length in bits (convenience copy of `fields.payload_bits`).
    pub payload_bits: usize,
}

impl Transmitter {
    /// A transmitter at `rate` with the standard (phase-0) puncture mask.
    pub fn new(rate: PhyRate) -> Self {
        Self { rate, phase: 0 }
    }

    /// A transmitter whose puncture mask is rotated by `phase` — the HARQ
    /// incremental-redundancy form: a retransmission at a different phase
    /// sends a different subset of the mother-code bits, so the combined
    /// attempts see a lower effective code rate. Rotation preserves the
    /// kept-bit count over whole mask periods, so the symbol layout is
    /// identical to phase 0.
    ///
    /// # Panics
    ///
    /// Panics if `phase` is not within the rate's puncture-mask period.
    pub fn with_phase(rate: PhyRate, phase: usize) -> Self {
        // Construct eagerly so an invalid phase fails here, not mid-packet.
        let _ = Puncturer::with_phase(rate.code_rate(), phase);
        Self { rate, phase }
    }

    /// The configured rate.
    pub fn rate(&self) -> PhyRate {
        self.rate
    }

    /// The configured puncture-mask phase.
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// Modulates `payload` (a bit slice) into baseband samples.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not a bit slice or the scramble seed is
    /// invalid.
    pub fn transmit(&self, payload: &[u8], scramble_seed: u8) -> TxResult {
        let mut scratch = PhyScratch::new();
        let mut samples = Vec::new();
        let fields = self.tx_into(payload, scramble_seed, &mut scratch, &mut samples);
        TxResult {
            samples,
            fields,
            payload_bits: payload.len(),
        }
    }

    /// Modulates `payload` into `out`, reusing `scratch` — the
    /// allocation-free form of [`Transmitter::transmit`] the scenario
    /// engine's workers run in their steady state.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not a bit slice or the scramble seed is
    /// invalid.
    // lint: no_alloc
    pub fn tx_into(
        &self,
        payload: &[u8],
        scramble_seed: u8,
        scratch: &mut PhyScratch,
        out: &mut Vec<Cplx>,
    ) -> PacketFields {
        let PhyScratch {
            encoder,
            ofdm_tx,
            data_bits,
            coded,
            punctured,
            interleaved,
            packet_points,
            ..
        } = scratch;
        let interleaver = Interleaver::new(self.rate);
        let mapper = Mapper::new(self.rate.modulation());

        let fields = PacketBuilder::new(self.rate).assemble_into(payload, scramble_seed, data_bits);
        encoder.reset();
        coded.clear();
        encoder.encode_into(data_bits, coded);
        punctured.clear();
        Puncturer::with_phase(self.rate.code_rate(), self.phase).puncture_into(coded, punctured);
        debug_assert_eq!(punctured.len(), fields.coded_bits());

        ofdm_tx.reset();
        out.clear();
        out.resize(fields.n_symbols * SYMBOL_LEN, Cplx::ZERO);
        let cbps = self.rate.coded_bits_per_symbol();
        // Map the whole packet into one constellation stream, then push
        // every symbol through the shared OFDM plan in one call.
        packet_points.clear();
        for sym_bits in punctured.chunks(cbps) {
            interleaver.interleave_into(sym_bits, interleaved);
            mapper.map_append(interleaved, packet_points);
        }
        ofdm_tx.modulate_packet_into(packet_points, out);
        fields
    }

    /// The frozen pre-plan form of [`Transmitter::tx_into`]: the same
    /// chain through the per-symbol reference bodies
    /// ([`Mapper::map_into_reference`],
    /// [`crate::OfdmModulator::modulate_into_reference`]). Differential
    /// oracle and perf baseline; samples are bit-identical by contract.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not a bit slice or the scramble seed is
    /// invalid.
    pub fn tx_into_reference(
        &self,
        payload: &[u8],
        scramble_seed: u8,
        scratch: &mut PhyScratch,
        out: &mut Vec<Cplx>,
    ) -> PacketFields {
        let PhyScratch {
            encoder,
            ofdm_tx,
            data_bits,
            coded,
            punctured,
            interleaved,
            points,
            ..
        } = scratch;
        let interleaver = Interleaver::new(self.rate);
        let mapper = Mapper::new(self.rate.modulation());

        let fields = PacketBuilder::new(self.rate).assemble_into(payload, scramble_seed, data_bits);
        encoder.reset();
        coded.clear();
        encoder.encode_into(data_bits, coded);
        punctured.clear();
        Puncturer::with_phase(self.rate.code_rate(), self.phase).puncture_into(coded, punctured);
        debug_assert_eq!(punctured.len(), fields.coded_bits());

        ofdm_tx.reset();
        out.clear();
        out.resize(fields.n_symbols * SYMBOL_LEN, Cplx::ZERO);
        let cbps = self.rate.coded_bits_per_symbol();
        for (i, sym_bits) in punctured.chunks(cbps).enumerate() {
            interleaver.interleave_into(sym_bits, interleaved);
            mapper.map_into_reference(interleaved, points);
            ofdm_tx.modulate_into_reference(points, &mut out[i * SYMBOL_LEN..(i + 1) * SYMBOL_LEN]);
        }
        fields
    }
}

/// The receive pipeline: OFDM demodulate → soft demap → deinterleave →
/// depuncture → soft decode → descramble.
pub struct Receiver {
    rate: PhyRate,
    demapper: Demapper,
    decoder: Box<dyn SoftDecoder>,
    /// Puncture-mask phase the front end expects (see
    /// [`Transmitter::with_phase`]); mutable via
    /// [`Receiver::set_puncture_phase`] so HARQ can re-aim one receiver at
    /// each retransmission's phase without rebuilding machinery.
    phase: usize,
}

/// A received packet: payload decisions plus the SoftPHY side information.
///
/// The buffers are reusable: passing the same `RxResult` to
/// [`Receiver::rx_from`] repeatedly retains their capacity.
#[derive(Debug, Clone, Default)]
pub struct RxResult {
    /// Descrambled payload bit decisions.
    pub payload: Vec<u8>,
    /// Per-payload-bit SoftPHY hints (6-bit confidence, 0..=63).
    pub hints: Vec<u16>,
    /// Per-payload-bit raw soft magnitudes from the decoder (pre-hint
    /// quantization), for calibration studies.
    pub soft_magnitudes: Vec<u32>,
    /// Which decoder produced this result.
    pub decoder_id: &'static str,
}

impl RxResult {
    /// Counts bit errors against the transmitted payload.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn bit_errors(&self, sent: &[u8]) -> usize {
        assert_eq!(sent.len(), self.payload.len(), "payload length mismatch");
        self.payload
            .iter()
            .zip(sent)
            .filter(|(a, b)| a != b)
            .count()
    }
}

impl Receiver {
    /// A receiver with an explicit decoder and demapper.
    pub fn new(rate: PhyRate, demapper: Demapper, decoder: Box<dyn SoftDecoder>) -> Self {
        Self {
            rate,
            demapper,
            decoder,
            phase: 0,
        }
    }

    /// A hard-decision baseline receiver (Viterbi, 8-bit demapper).
    pub fn viterbi(rate: PhyRate) -> Self {
        Self::new(
            rate,
            Demapper::new(rate.modulation(), 8, SnrScaling::Off),
            Box::new(ViterbiDecoder::new(&ConvCode::ieee80211())),
        )
    }

    /// [`Receiver::viterbi`] built on an already-compiled trellis — the
    /// form the scenario engine's oracle bank uses, so the system's one
    /// table build serves it.
    pub fn viterbi_shared(rate: PhyRate, trellis: std::sync::Arc<CompiledTrellis>) -> Self {
        Self::new(
            rate,
            Demapper::new(rate.modulation(), 8, SnrScaling::Off),
            Box::new(ViterbiDecoder::with_shared_trellis(trellis)),
        )
    }

    /// The demapper soft-output width of the SoftPHY hint path, per
    /// modulation: sized so the 6-bit hint range spans BER 10⁻¹..10⁻⁷
    /// (the paper's stated requirement, and the span of its Figure 5
    /// axes). BPSK/QPSK saturate a 5-bit quantizer too early (their
    /// per-coded-bit confidences are large), so they use 4 bits; the QAM
    /// constellations keep 5. All widths sit inside the paper's 3–8 bit
    /// hardware envelope (§4.1). The one definition: `wilis-softphy`'s
    /// scaling factors read it too.
    pub fn hint_demapper_bits(modulation: crate::Modulation) -> u32 {
        match modulation {
            crate::Modulation::Bpsk | crate::Modulation::Qpsk => 4,
            crate::Modulation::Qam16 | crate::Modulation::Qam64 => 5,
        }
    }

    /// A SoftPHY receiver using SOVA with the paper's `l = k = 64`, on
    /// the hint-path demapper (see [`Receiver::hint_demapper_bits`]).
    pub fn sova(rate: PhyRate) -> Self {
        let bits = Self::hint_demapper_bits(rate.modulation());
        Self::new(
            rate,
            Demapper::new(rate.modulation(), bits, SnrScaling::Off),
            Box::new(SovaDecoder::new(&ConvCode::ieee80211(), 64, 64)),
        )
    }

    /// A SoftPHY receiver using sliding-window BCJR with block length 64,
    /// on the hint-path demapper (see [`Receiver::hint_demapper_bits`]).
    pub fn bcjr(rate: PhyRate) -> Self {
        let bits = Self::hint_demapper_bits(rate.modulation());
        Self::new(
            rate,
            Demapper::new(rate.modulation(), bits, SnrScaling::Off),
            Box::new(BcjrDecoder::new(&ConvCode::ieee80211(), 64)),
        )
    }

    /// The configured rate.
    pub fn rate(&self) -> PhyRate {
        self.rate
    }

    /// Aims the front end at a [`Transmitter::with_phase`] retransmission:
    /// erasures are re-inserted where *that* phase's mask stole bits. Only
    /// the depuncture stage depends on the phase, so this is a field write
    /// — no machinery rebuild.
    ///
    /// # Panics
    ///
    /// Panics if `phase` is not within the rate's puncture-mask period.
    pub fn set_puncture_phase(&mut self, phase: usize) {
        let _ = Depuncturer::with_phase(self.rate.code_rate(), phase);
        self.phase = phase;
    }

    /// Re-aims the receiver at `rate` without allocating: the demapper is
    /// rebuilt for the rate's modulation at `demapper_bits` of output width
    /// with the same scaling, the puncture phase goes back to 0 (the
    /// standard mask), and the decoder, which does not depend on the rate,
    /// is kept with its scratch. The result is bit-identical to a receiver
    /// built fresh for `rate` with that demapper and decoder.
    pub fn set_rate(&mut self, rate: PhyRate, demapper_bits: u32) {
        self.rate = rate;
        self.demapper = Demapper::new(rate.modulation(), demapper_bits, self.demapper.scaling());
        self.phase = 0;
    }

    /// Demodulates and decodes a packet of known payload length.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is not exactly the packet's symbol count, or the
    /// scramble seed is invalid.
    pub fn receive(
        &mut self,
        samples: &[Cplx],
        payload_bits: usize,
        scramble_seed: u8,
    ) -> RxResult {
        let mut scratch = PhyScratch::new();
        let mut out = RxResult::default();
        self.rx_from(samples, payload_bits, scramble_seed, &mut scratch, &mut out);
        out
    }

    /// Demodulates and decodes a packet into `out`, reusing `scratch` —
    /// the allocation-free form of [`Receiver::receive`] the scenario
    /// engine's workers run in their steady state. It is
    /// [`Receiver::rx_batch_from`] at one lane.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is not exactly the packet's symbol count, or the
    /// scramble seed is invalid.
    // lint: no_alloc
    pub fn rx_from(
        &mut self,
        samples: &[Cplx],
        payload_bits: usize,
        scramble_seed: u8,
        scratch: &mut PhyScratch,
        out: &mut RxResult,
    ) {
        self.rx_batch_from(
            std::slice::from_ref(&samples),
            payload_bits,
            std::slice::from_ref(&scramble_seed),
            scratch,
            std::slice::from_mut(out),
        );
    }

    /// The front half of [`Receiver::rx_from`]: demodulates, demaps,
    /// deinterleaves, and depunctures one packet, leaving the pre-decode
    /// mother-code LLR plane in `mother_out`. This is the plane HARQ
    /// soft-combining retains across retransmissions — combine planes with
    /// [`wilis_fec::combine_llrs_into`], then re-enter the decoder through
    /// [`Receiver::rx_decode_from`]. It is
    /// [`Receiver::rx_batch_front_end_into`] at one lane.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is not exactly the packet's symbol count.
    // lint: no_alloc
    pub fn rx_front_end_into(
        &mut self,
        samples: &[Cplx],
        payload_bits: usize,
        scratch: &mut PhyScratch,
        mother_out: &mut Vec<Llr>,
    ) {
        self.rx_batch_front_end_into(
            std::slice::from_ref(&samples),
            payload_bits,
            scratch,
            mother_out,
        );
    }

    /// The back half of [`Receiver::rx_from`]: decodes a mother-code LLR
    /// plane (fresh from [`Receiver::rx_front_end_into`], or a
    /// HARQ-combined one) and unpacks the payload into `out`. It is
    /// [`Receiver::rx_batch_decode_from`] at one lane.
    ///
    /// # Panics
    ///
    /// Panics if `mother`'s length is not the packet's mother-bit count,
    /// or the scramble seed is invalid.
    // lint: no_alloc
    pub fn rx_decode_from(
        &mut self,
        mother: &[Llr],
        payload_bits: usize,
        scramble_seed: u8,
        scratch: &mut PhyScratch,
        out: &mut RxResult,
    ) {
        self.rx_batch_decode_from(
            mother,
            1,
            payload_bits,
            std::slice::from_ref(&scramble_seed),
            scratch,
            std::slice::from_mut(out),
        );
    }

    /// Demodulates and decodes `lane_samples.len()` same-rate,
    /// same-length packets in lockstep — the one receive body: a solo
    /// receive ([`Receiver::rx_from`]) is this at one lane, and the
    /// scenario engine's fused shared-channel groups run it at up to
    /// `wilis_fec::MAX_BATCH_LANES`. Every front-end stage runs one
    /// lane-major body compiled for the lane count (see
    /// [`Receiver::rx_batch_front_end_into`]), and the decode runs the
    /// decoder's lane kernels (see [`Receiver::rx_batch_decode_from`]).
    ///
    /// Per lane, every `RxResult` is **bit-identical** to the frozen
    /// reference receive [`Receiver::rx_from_reference`] of that lane —
    /// batching is purely a throughput lever; the equivalence suite
    /// enforces this.
    ///
    /// # Panics
    ///
    /// Panics if the lane count is outside
    /// `1..=wilis_fec::MAX_BATCH_LANES`, `scramble_seeds` or `outs`
    /// disagree with it in length, any lane is not exactly the packet's
    /// symbol count, or a scramble seed is invalid.
    // lint: no_alloc
    pub fn rx_batch_from<S: AsRef<[Cplx]>>(
        &mut self,
        lane_samples: &[S],
        payload_bits: usize,
        scramble_seeds: &[u8],
        scratch: &mut PhyScratch,
        outs: &mut [RxResult],
    ) {
        let mut mother = std::mem::take(&mut scratch.mother);
        self.rx_batch_front_end_into(lane_samples, payload_bits, scratch, &mut mother);
        self.rx_batch_decode_from(
            &mother,
            lane_samples.len(),
            payload_bits,
            scramble_seeds,
            scratch,
            outs,
        );
        scratch.mother = mother;
    }

    /// The front half of [`Receiver::rx_batch_from`], and the only
    /// front-end body: demodulates, demaps, deinterleaves, and
    /// depunctures all lanes in lockstep, leaving the lane-major mother
    /// LLR stream in `mother_out` (soft bit `i` of lane `l` at
    /// `mother_out[i * lanes + l]`; one lane is a plain stream). Each
    /// stage runs its one body compiled for the lane count. Split out so
    /// a caller holding several receivers at one rate and demapper width
    /// (the scenario engine's group chains) runs this once and decodes
    /// the same stream through each receiver's decoder.
    ///
    /// # Panics
    ///
    /// Panics if the lane count is outside
    /// `1..=wilis_fec::MAX_BATCH_LANES` or any lane is not exactly the
    /// packet's symbol count.
    // lint: no_alloc
    pub fn rx_batch_front_end_into<S: AsRef<[Cplx]>>(
        &mut self,
        lane_samples: &[S],
        payload_bits: usize,
        scratch: &mut PhyScratch,
        mother_out: &mut Vec<Llr>,
    ) {
        let lanes = lane_samples.len();
        assert!(
            (1..=MAX_BATCH_LANES).contains(&lanes),
            "lane count {lanes} outside 1..={MAX_BATCH_LANES}"
        );
        let fields = PacketFields::for_payload(self.rate, payload_bits);
        for lane in lane_samples {
            assert_eq!(
                lane.as_ref().len(),
                fields.n_symbols * SYMBOL_LEN,
                "sample count does not match packet layout"
            );
        }
        let PhyScratch {
            ofdm_rx,
            carriers,
            symbol_llrs,
            punctured_llrs,
            ..
        } = scratch;

        ofdm_rx.demodulate_packet_batch_into(lane_samples, carriers);
        self.demapper.demap_batch_into(carriers, lanes, symbol_llrs);
        debug_assert_eq!(
            symbol_llrs.len(),
            fields.n_symbols * self.rate.coded_bits_per_symbol() * lanes
        );
        Deinterleaver::new(self.rate).deinterleave_packet_lanes_into(
            symbol_llrs,
            lanes,
            punctured_llrs,
        );
        mother_out.clear();
        Depuncturer::with_phase(self.rate.code_rate(), self.phase).depuncture_lanes_into(
            punctured_llrs,
            lanes,
            fields.data_bits() * 2,
            mother_out,
        );
    }

    /// The back half of [`Receiver::rx_batch_from`], and the only decode
    /// body: decodes a lane-major mother LLR stream (as produced by
    /// [`Receiver::rx_batch_front_end_into`] on a front-end-compatible
    /// receiver) and unpacks each lane into its `RxResult`. One lane
    /// decodes through [`SoftDecoder::decode_terminated_into`], more
    /// through [`SoftDecoder::decode_terminated_batch_into`]; both run
    /// the decoder's lane kernels, and keeping the two calls apart keeps
    /// solo and batched decodes countable.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero, `scramble_seeds`/`outs` disagree with
    /// it, `mother`'s length is not the packet's mother bits times
    /// `lanes`, or a scramble seed is invalid.
    // lint: no_alloc
    pub fn rx_batch_decode_from(
        &mut self,
        mother: &[Llr],
        lanes: usize,
        payload_bits: usize,
        scramble_seeds: &[u8],
        scratch: &mut PhyScratch,
        outs: &mut [RxResult],
    ) {
        assert!(lanes > 0, "at least one lane");
        assert_eq!(scramble_seeds.len(), lanes, "one scramble seed per lane");
        assert_eq!(outs.len(), lanes, "one RxResult per lane");
        let fields = PacketFields::for_payload(self.rate, payload_bits);
        assert_eq!(
            mother.len(),
            fields.data_bits() * 2 * lanes,
            "mother stream length does not match the packet layout"
        );
        let decoded = lane_outputs(&mut scratch.decoded_lanes, lanes);
        match decoded {
            [one] => self.decoder.decode_terminated_into(mother, one),
            _ => self
                .decoder
                .decode_terminated_batch_into(mother, lanes, decoded),
        }
        for ((out, decoded), &seed) in outs.iter_mut().zip(decoded.iter()).zip(scramble_seeds) {
            debug_assert_eq!(decoded.bits.len(), fields.data_bits() - TAIL_BITS);
            Self::unpack_decoded(self.rate, &*self.decoder, decoded, &fields, seed, out);
        }
    }

    /// The frozen pre-plan form of [`Receiver::rx_from`]: per-symbol
    /// demodulation, demapping and deinterleaving through the reference
    /// bodies ([`crate::OfdmDemodulator::demodulate_into_reference`],
    /// [`Demapper::demap_into_reference`],
    /// [`crate::Deinterleaver::deinterleave_append`]), then the same
    /// depuncturer and decoder. Differential oracle and perf baseline;
    /// the LLR stream and therefore the whole `RxResult` are
    /// bit-identical by contract.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is not exactly the packet's symbol count, or the
    /// scramble seed is invalid.
    pub fn rx_from_reference(
        &mut self,
        samples: &[Cplx],
        payload_bits: usize,
        scramble_seed: u8,
        scratch: &mut PhyScratch,
        out: &mut RxResult,
    ) {
        let fields = PacketFields::for_payload(self.rate, payload_bits);
        assert_eq!(
            samples.len(),
            fields.n_symbols * SYMBOL_LEN,
            "sample count does not match packet layout"
        );
        let PhyScratch {
            ofdm_rx,
            carriers,
            symbol_llrs,
            punctured_llrs,
            mother,
            decoded_lanes,
            ..
        } = scratch;
        let deinterleaver = Deinterleaver::new(self.rate);

        let cbps = self.rate.coded_bits_per_symbol();
        punctured_llrs.clear();
        punctured_llrs.reserve(fields.coded_bits());
        for sym_samples in samples.chunks(SYMBOL_LEN) {
            ofdm_rx.demodulate_into_reference(sym_samples, carriers);
            self.demapper.demap_into_reference(carriers, symbol_llrs);
            debug_assert_eq!(symbol_llrs.len(), cbps);
            deinterleaver.deinterleave_append(symbol_llrs, punctured_llrs);
        }
        mother.clear();
        Depuncturer::with_phase(self.rate.code_rate(), self.phase).depuncture_into(
            punctured_llrs,
            fields.data_bits() * 2,
            mother,
        );
        let decoded = &mut lane_outputs(decoded_lanes, 1)[0];
        self.decoder.decode_terminated_into(mother, decoded);
        debug_assert_eq!(decoded.bits.len(), fields.data_bits() - TAIL_BITS);
        Self::unpack_decoded(
            self.rate,
            &*self.decoder,
            decoded,
            &fields,
            scramble_seed,
            out,
        );
    }

    /// Shared tail of the lane and reference RX forms: descramble the payload region and
    /// copy out hints and soft magnitudes.
    fn unpack_decoded(
        rate: PhyRate,
        decoder: &dyn SoftDecoder,
        decoded: &DecodeOutput,
        fields: &PacketFields,
        scramble_seed: u8,
        out: &mut RxResult,
    ) {
        let payload_bits = fields.payload_bits;
        PacketBuilder::new(rate).disassemble_into(
            &decoded.bits,
            fields,
            scramble_seed,
            &mut out.payload,
        );
        // Hints and magnitudes for the payload region only (descrambling
        // flips bit meanings, not confidences).
        out.hints.clear();
        out.hints
            .extend((SERVICE_BITS..SERVICE_BITS + payload_bits).map(|i| decoded.hint(i)));
        out.soft_magnitudes.clear();
        out.soft_magnitudes.extend(
            decoded.soft[SERVICE_BITS..SERVICE_BITS + payload_bits]
                .iter()
                .map(|&s| s.unsigned_abs()),
        );
        out.decoder_id = decoder.id();
    }
}

impl std::fmt::Debug for Receiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Receiver({}, {} decoder, {}-bit demapper)",
            self.rate,
            self.decoder.id(),
            self.demapper.output_bits()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 29 + 5) % 2) as u8).collect()
    }

    #[test]
    fn clean_roundtrip_every_rate_every_decoder() {
        for rate in PhyRate::all() {
            let data = payload(600);
            let tx = Transmitter::new(rate).transmit(&data, 0x5D);
            for mut rx in [
                Receiver::viterbi(rate),
                Receiver::sova(rate),
                Receiver::bcjr(rate),
            ] {
                let got = rx.receive(&tx.samples, data.len(), 0x5D);
                assert_eq!(got.bit_errors(&data), 0, "{rate} with {}", got.decoder_id);
            }
        }
    }

    #[test]
    fn empty_payload_roundtrip() {
        let rate = PhyRate::BpskHalf;
        let tx = Transmitter::new(rate).transmit(&[], 0x11);
        let got = Receiver::viterbi(rate).receive(&tx.samples, 0, 0x11);
        assert!(got.payload.is_empty());
        assert_eq!(tx.fields.n_symbols, 1);
    }

    #[test]
    fn hints_cover_payload_exactly() {
        let rate = PhyRate::Qam16Half;
        let data = payload(1704);
        let tx = Transmitter::new(rate).transmit(&data, 0x5D);
        let got = Receiver::sova(rate).receive(&tx.samples, data.len(), 0x5D);
        assert_eq!(got.hints.len(), 1704);
        assert_eq!(got.soft_magnitudes.len(), 1704);
        assert!(got.hints.iter().all(|&h| h <= 63));
        // Clean channel: confidence should be mostly pegged high.
        let high = got.hints.iter().filter(|&&h| h >= 32).count();
        assert!(high > 1500, "only {high}/1704 high-confidence hints");
    }

    #[test]
    fn wrong_seed_corrupts_payload_but_not_confidence() {
        let rate = PhyRate::QpskHalf;
        let data = payload(400);
        let tx = Transmitter::new(rate).transmit(&data, 0x5D);
        let got = Receiver::viterbi(rate).receive(&tx.samples, data.len(), 0x2A);
        assert!(
            got.bit_errors(&data) > 100,
            "descrambling with the wrong seed must scramble the payload"
        );
    }

    #[test]
    fn sample_count_matches_fields() {
        let rate = PhyRate::Qam64ThreeQuarters;
        let data = payload(1500 * 8);
        let tx = Transmitter::new(rate).transmit(&data, 0x5D);
        assert_eq!(tx.samples.len(), tx.fields.n_symbols * SYMBOL_LEN);
        // 12000 data bits at 216/symbol (+22 overhead): 56 symbols.
        assert_eq!(tx.fields.n_symbols, 56);
    }

    #[test]
    fn phased_retransmission_roundtrips_cleanly() {
        // Every IR phase of a punctured rate must decode clean on a clean
        // channel when TX and RX agree on the phase.
        for rate in [PhyRate::QpskThreeQuarters, PhyRate::Qam16Half] {
            let period = rate.code_rate().mask().len();
            let data = payload(600);
            for phase in 0..period {
                let tx = Transmitter::with_phase(rate, phase).transmit(&data, 0x5D);
                let mut rx = Receiver::sova(rate);
                rx.set_puncture_phase(phase);
                let got = rx.receive(&tx.samples, data.len(), 0x5D);
                assert_eq!(got.bit_errors(&data), 0, "{rate} phase {phase}");
            }
        }
    }

    #[test]
    fn scalar_split_matches_monolithic_rx() {
        let rate = PhyRate::Qam16ThreeQuarters;
        let data = payload(800);
        let tx = Transmitter::new(rate).transmit(&data, 0x5D);
        let mut rx = Receiver::bcjr(rate);
        let mut scratch = PhyScratch::new();
        let mut whole = RxResult::default();
        rx.rx_from(&tx.samples, data.len(), 0x5D, &mut scratch, &mut whole);

        let mut mother = Vec::new();
        let mut halves = RxResult::default();
        rx.rx_front_end_into(&tx.samples, data.len(), &mut scratch, &mut mother);
        rx.rx_decode_from(&mother, data.len(), 0x5D, &mut scratch, &mut halves);
        assert_eq!(whole.payload, halves.payload);
        assert_eq!(whole.hints, halves.hints);
        assert_eq!(whole.soft_magnitudes, halves.soft_magnitudes);
    }

    #[test]
    #[should_panic(expected = "does not match packet layout")]
    fn truncated_samples_panic() {
        let rate = PhyRate::BpskHalf;
        let tx = Transmitter::new(rate).transmit(&payload(100), 0x5D);
        let _ = Receiver::viterbi(rate).receive(&tx.samples[..80], 100, 0x5D);
    }
}

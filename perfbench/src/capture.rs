//! Seeded traffic: the in-memory capture each workload replays.
//!
//! Packets come from the PeerRush-like [`SyntheticSource`] with payload
//! heads on, are rendered to Ethernet frames exactly as
//! `FrameSynthSource` renders them, and are stored snapped to
//! [`SNAPLEN`] bytes with their original wire length, as a capture file
//! would hold them. A workload may rewrite each flow's addressing (to
//! spread it over tenants), cap each flow's packet count, and inject
//! malformed copies of frames. Everything is a function of the seed.

use pegasus_datasets::{peerrush, SyntheticConfig, SyntheticSource};
use pegasus_net::wire::encode_trace_packet;
use pegasus_net::{
    FiveTuple, FrameSource, PacketSource, PcapWriter, RawFrame, RAW_BYTES_PER_PACKET,
};
use std::collections::HashMap;
use std::path::Path;

/// Captured bytes kept per frame: the headers plus the whole payload head
/// the engine reads, so parsing a snapped frame gives the same packet.
const SNAPLEN: usize = 128;

/// Bytes kept of a deliberately truncated frame: the Ethernet header and
/// part of the IPv4 header, so the parser rejects it as truncated.
const TRUNCATED_LEN: usize = 30;
/// Offset of the IPv4 TTL byte; changing it breaks the header checksum.
const TTL_OFFSET: usize = 14 + 8;

/// SplitMix64: the benchmark's own deterministic stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// True with probability `per_mille / 1000`.
    pub fn chance(&mut self, per_mille: u64) -> bool {
        self.next() % 1000 < per_mille
    }
}

/// How a workload shapes the synthetic traffic.
pub struct Shape<'a> {
    pub flows_per_class: usize,
    /// Keep only each flow's first packets.
    pub max_packets_per_flow: Option<usize>,
    /// Rewrites a flow's addressing, given the flow's index in generation
    /// order. Source addresses must stay unique so flows stay distinct.
    pub rewrite: Option<&'a dyn Fn(usize, FiveTuple) -> FiveTuple>,
    /// Per-mille of frames followed by a truncated copy.
    pub truncated_per_mille: u64,
    /// Per-mille of frames followed by a copy with a bad IPv4 checksum.
    pub checksum_per_mille: u64,
}

struct Record {
    offset: usize,
    caplen: u32,
    ts_micros: u64,
    wire_len: u32,
}

/// An in-memory capture with a cursor (a [`FrameSource`]).
pub struct Capture {
    data: Vec<u8>,
    records: Vec<Record>,
    cursor: usize,
    /// Ground-truth class of every flow (after rewriting).
    pub labels: HashMap<FiveTuple, usize>,
    /// Malformed frames injected, by kind.
    pub truncated: u64,
    pub bad_checksum: u64,
}

impl Capture {
    pub fn synthesize(seed: u64, shape: &Shape<'_>) -> Capture {
        let cfg = SyntheticConfig {
            flows_per_class: shape.flows_per_class,
            seed,
            payload_bytes: RAW_BYTES_PER_PACKET,
            ..SyntheticConfig::default()
        };
        let mut source = SyntheticSource::new(&peerrush(), &cfg);
        let mut index: HashMap<FiveTuple, usize> = HashMap::new();
        let mut rewritten = Vec::with_capacity(source.labels().len());
        let mut labels = HashMap::new();
        for (i, &(flow, class)) in source.labels().iter().enumerate() {
            index.insert(flow, i);
            let new = shape.rewrite.map_or(flow, |f| f(i, flow));
            assert!(labels.insert(new, class).is_none(), "rewritten flows must stay distinct");
            rewritten.push(new);
        }
        let mut seen = vec![0usize; rewritten.len()];
        let mut rng = Rng::new(seed ^ 0x6d61_6c66);
        let mut cap = Capture {
            data: Vec::new(),
            records: Vec::new(),
            cursor: 0,
            labels,
            truncated: 0,
            bad_checksum: 0,
        };
        let mut buf = Vec::new();
        while let Some(mut pkt) = source.next_packet() {
            let i = index[&pkt.flow];
            seen[i] += 1;
            if shape.max_packets_per_flow.is_some_and(|max| seen[i] > max) {
                continue;
            }
            pkt.flow = rewritten[i];
            let wire_len = u32::from(encode_trace_packet(&pkt, &mut buf));
            let keep = buf.len().min(SNAPLEN);
            cap.push(pkt.ts_micros, wire_len, &buf[..keep]);
            if rng.chance(shape.truncated_per_mille) {
                cap.push(pkt.ts_micros, wire_len, &buf[..TRUNCATED_LEN]);
                cap.truncated += 1;
            }
            if rng.chance(shape.checksum_per_mille) {
                let mut bad = buf[..keep].to_vec();
                bad[TTL_OFFSET] ^= 0x01;
                cap.push(pkt.ts_micros, wire_len, &bad);
                cap.bad_checksum += 1;
            }
        }
        cap
    }

    fn push(&mut self, ts_micros: u64, wire_len: u32, bytes: &[u8]) {
        self.records.push(Record {
            offset: self.data.len(),
            caplen: bytes.len() as u32,
            ts_micros,
            wire_len,
        });
        self.data.extend_from_slice(bytes);
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Frame `i`, with `ts_shift` added to its timestamp (replays that
    /// wrap around the capture keep time moving forward).
    pub fn frame(&self, i: usize, ts_shift: u64) -> RawFrame<'_> {
        let r = &self.records[i];
        RawFrame {
            ts_micros: r.ts_micros + ts_shift,
            wire_len: r.wire_len,
            bytes: &self.data[r.offset..r.offset + r.caplen as usize],
        }
    }

    /// One past the last timestamp: the shift of each wrap-around.
    pub fn span_micros(&self) -> u64 {
        self.records.last().map_or(1, |r| r.ts_micros + 1)
    }

    pub fn rewind(&mut self) {
        self.cursor = 0;
    }

    /// Writes frames `range` as a classic pcap file.
    pub fn write_pcap(&self, path: &Path, range: std::ops::Range<usize>) -> std::io::Result<()> {
        let mut writer = PcapWriter::with_snaplen(SNAPLEN as u32);
        for i in range {
            let f = self.frame(i, 0);
            writer.record_with_orig_len(f.ts_micros, f.bytes, f.wire_len);
        }
        std::fs::write(path, writer.into_bytes())
    }
}

impl FrameSource for Capture {
    fn next_frame(&mut self) -> Option<RawFrame<'_>> {
        let i = self.cursor;
        if i >= self.records.len() {
            return None;
        }
        self.cursor += 1;
        Some(self.frame(i, 0))
    }
}

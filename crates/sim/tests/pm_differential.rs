//! Differential test of [`PmDevice`] against a naive reference model.
//!
//! The model keeps every pending line in a `BTreeMap<line, (data, writers,
//! closed)>` and implements each operation by brute force over that map, so
//! it shares no data structure with the device: not the paged directory,
//! not the line pool, not the per-warp pending-line index. Seeded random op
//! sequences drive both side by side and every step compares return
//! counts, `read`/`read_media` bytes, `pending_line_count` and
//! `closed_line_count`. A divergence panics with a one-line seed repro.

use std::collections::{BTreeMap, BTreeSet};

use gpm_sim::pm::{CrashPolicy, CrashReport, PmDevice, WriterId, HOST_WRITER};
use gpm_sim::rng::Xoshiro256StarStar;

const LINE: u64 = 64;
/// Four directory pages plus a partial last line, so the capacity clamp on
/// media writes and on full-cover retirement is exercised.
const CAP: u64 = 4 * 64 * LINE - 40;
const SEEDS: u64 = 96;
const OPS_PER_SEED: usize = 200;

#[derive(Debug, Clone)]
enum Op {
    Write {
        writer: WriterId,
        offset: u64,
        bytes: Vec<u8>,
    },
    WriteLanes {
        writer0: WriterId,
        lane_bytes: u32,
        offset: u64,
        bytes: Vec<u8>,
    },
    PersistWriter(WriterId),
    PersistWritersRange(WriterId, u32),
    CloseWriter(WriterId),
    CloseWritersRange(WriterId, u32),
    DrainClosed,
    PersistRange(u64, u64),
    WriteDurable {
        offset: u64,
        bytes: Vec<u8>,
    },
    Crash(CrashPolicy),
}

impl Op {
    /// The op without its payload bytes, for the repro line.
    fn summary(&self) -> String {
        match self {
            Op::Write {
                writer,
                offset,
                bytes,
            } => {
                format!("write_visible({writer:#x}, {offset}, {} B)", bytes.len())
            }
            Op::WriteLanes {
                writer0,
                lane_bytes,
                offset,
                bytes,
            } => format!(
                "write_visible_lanes({writer0:#x}, {lane_bytes}, {offset}, {} B)",
                bytes.len()
            ),
            Op::WriteDurable { offset, bytes } => {
                format!("write_durable({offset}, {} B)", bytes.len())
            }
            other => format!("{other:?}"),
        }
    }
}

/// A writer id from one of the id populations the simulator sees: dense
/// GPU global ids in three warps, ids straddling a 1M-thread grid's warp
/// boundary, the pmkv CPU writers, and the host.
fn writer(rng: &mut Xoshiro256StarStar, allow_host: bool) -> WriterId {
    match rng.gen_range_u64(if allow_host { 8 } else { 7 }) {
        0..=3 => rng.gen_range_u64(96) as WriterId,
        4 | 5 => 1_048_544 + rng.gen_range_u64(64) as WriterId,
        6 => 0xF000_0001 + rng.gen_range_u64(2) as WriterId,
        _ => HOST_WRITER,
    }
}

/// An offset for a `len`-byte access: half the time inside a hot 2 KiB
/// window so lines are shared, rewritten and re-dirtied often.
fn offset(rng: &mut Xoshiro256StarStar, len: u64) -> u64 {
    let span = if rng.gen_bool(0.5) { 2048 } else { CAP };
    rng.gen_range_u64(span - len + 1)
}

fn payload(rng: &mut Xoshiro256StarStar, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

fn gen_op(rng: &mut Xoshiro256StarStar) -> Op {
    match rng.gen_range_u64(20) {
        0..=5 => {
            let len = 1 + rng.gen_range_u64(160);
            Op::Write {
                writer: writer(rng, true),
                offset: offset(rng, len),
                bytes: payload(rng, len as usize),
            }
        }
        6..=9 => {
            let lane_bytes = [1u32, 2, 4, 8, 16][rng.gen_range_usize(5)];
            let lanes = 1 + rng.gen_range_u64(32);
            let len = lanes * lane_bytes as u64;
            Op::WriteLanes {
                writer0: writer(rng, false),
                lane_bytes,
                offset: offset(rng, len),
                bytes: payload(rng, len as usize),
            }
        }
        10 | 11 => Op::PersistWriter(writer(rng, false)),
        12 | 13 => Op::PersistWritersRange(writer(rng, false), 1 + rng.gen_range_u64(32) as u32),
        14 => Op::CloseWriter(writer(rng, false)),
        15 => Op::CloseWritersRange(writer(rng, false), 1 + rng.gen_range_u64(32) as u32),
        16 => Op::DrainClosed,
        17 => {
            let len = 1 + rng.gen_range_u64(256);
            Op::PersistRange(offset(rng, len), len)
        }
        18 => {
            // Mostly line-aligned full covers, sometimes partial ones.
            let len = if rng.gen_bool(0.5) {
                LINE * (1 + rng.gen_range_u64(3))
            } else {
                1 + rng.gen_range_u64(100)
            };
            let mut off = offset(rng, len);
            if len % LINE == 0 {
                off -= off % LINE;
            }
            Op::WriteDurable {
                offset: off,
                bytes: payload(rng, len as usize),
            }
        }
        _ if rng.gen_bool(0.25) => Op::Crash(match rng.gen_range_u64(4) {
            0 => CrashPolicy::AllApplied,
            1 => CrashPolicy::NoneApplied,
            2 => CrashPolicy::GrayCode(rng.next_u64()),
            _ => CrashPolicy::Random(rng.next_u64()),
        }),
        _ => Op::DrainClosed,
    }
}

struct ModelLine {
    data: [u8; LINE as usize],
    writers: BTreeSet<WriterId>,
    closed: bool,
}

/// The reference device: durable media plus a map of pending lines.
struct Model {
    media: Vec<u8>,
    lines: BTreeMap<u64, ModelLine>,
}

impl Model {
    fn new() -> Model {
        Model {
            media: vec![0; CAP as usize],
            lines: BTreeMap::new(),
        }
    }

    fn line_end(line: u64) -> u64 {
        ((line + 1) * LINE).min(CAP)
    }

    fn apply(&mut self, line: u64) {
        let l = self.lines.remove(&line).expect("pending line");
        let start = line * LINE;
        let end = Model::line_end(line);
        self.media[start as usize..end as usize].copy_from_slice(&l.data[..(end - start) as usize]);
    }

    fn write(&mut self, writer: WriterId, offset: u64, bytes: &[u8]) {
        let end = offset + bytes.len() as u64;
        for line in offset / LINE..=(end - 1) / LINE {
            let start = line * LINE;
            let media = &self.media;
            let l = self.lines.entry(line).or_insert_with(|| {
                let mut data = [0u8; LINE as usize];
                let e = Model::line_end(line);
                data[..(e - start) as usize].copy_from_slice(&media[start as usize..e as usize]);
                ModelLine {
                    data,
                    writers: BTreeSet::new(),
                    closed: false,
                }
            });
            l.closed = false;
            l.writers.insert(writer);
            let s = offset.max(start);
            let e = end.min(start + LINE);
            l.data[(s - start) as usize..(e - start) as usize]
                .copy_from_slice(&bytes[(s - offset) as usize..(e - offset) as usize]);
        }
    }

    fn hits(l: &ModelLine, writer0: WriterId, lanes: u32) -> bool {
        l.writers
            .iter()
            .any(|&w| w >= writer0 && u64::from(w) < u64::from(writer0) + u64::from(lanes))
    }

    fn persist_writers_range(&mut self, writer0: WriterId, lanes: u32) -> u64 {
        let hit: Vec<u64> = self
            .lines
            .iter()
            .filter(|(_, l)| Model::hits(l, writer0, lanes))
            .map(|(&k, _)| k)
            .collect();
        for &line in &hit {
            self.apply(line);
        }
        hit.len() as u64
    }

    fn close_writers_range(&mut self, writer0: WriterId, lanes: u32) -> u64 {
        let mut n = 0;
        for l in self.lines.values_mut() {
            if !l.closed && Model::hits(l, writer0, lanes) {
                l.closed = true;
                n += 1;
            }
        }
        n
    }

    fn drain_closed(&mut self) -> u64 {
        let closed: Vec<u64> = self
            .lines
            .iter()
            .filter(|(_, l)| l.closed)
            .map(|(&k, _)| k)
            .collect();
        for &line in &closed {
            self.apply(line);
        }
        closed.len() as u64
    }

    fn persist_range(&mut self, offset: u64, len: u64) -> u64 {
        let mut n = 0;
        for line in offset / LINE..=(offset + len - 1) / LINE {
            if self.lines.contains_key(&line) {
                self.apply(line);
                n += 1;
            }
        }
        n
    }

    fn write_durable(&mut self, offset: u64, bytes: &[u8]) {
        let end = offset + bytes.len() as u64;
        self.media[offset as usize..end as usize].copy_from_slice(bytes);
        for line in offset / LINE..=(end - 1) / LINE {
            let start = line * LINE;
            if offset <= start && end >= Model::line_end(line) {
                self.lines.remove(&line);
            } else if let Some(l) = self.lines.get_mut(&line) {
                let s = offset.max(start);
                let e = end.min(start + LINE);
                l.data[(s - start) as usize..(e - start) as usize]
                    .copy_from_slice(&bytes[(s - offset) as usize..(e - offset) as usize]);
            }
        }
    }

    fn crash(&mut self, policy: CrashPolicy) -> CrashReport {
        let mut rng = Xoshiro256StarStar::seed_from_u64(match policy {
            CrashPolicy::Random(seed) => seed,
            _ => 0,
        });
        let mask = policy.gray_mask().unwrap_or(0);
        let mut report = CrashReport::default();
        let lines: Vec<u64> = self.lines.keys().copied().collect();
        for (visited, line) in lines.into_iter().enumerate() {
            let apply = match policy {
                CrashPolicy::AllApplied => true,
                CrashPolicy::NoneApplied => false,
                CrashPolicy::GrayCode(_) => mask >> (visited % 64) & 1 == 1,
                CrashPolicy::Random(_) => rng.gen_bool(0.5),
            };
            if apply {
                self.apply(line);
                report.lines_applied += 1;
            } else {
                self.lines.remove(&line);
                report.lines_dropped += 1;
            }
        }
        report
    }

    fn read(&self) -> Vec<u8> {
        let mut buf = self.media.clone();
        for (&line, l) in &self.lines {
            let start = line * LINE;
            let end = Model::line_end(line);
            buf[start as usize..end as usize].copy_from_slice(&l.data[..(end - start) as usize]);
        }
        buf
    }
}

/// Applies `op` to both sides and describes the first divergence.
fn step(pm: &mut PmDevice, model: &mut Model, op: &Op) -> Result<(), String> {
    let (got, want) = match op {
        Op::Write {
            writer,
            offset,
            bytes,
        } => {
            pm.write_visible(*writer, *offset, bytes)
                .map_err(|e| e.to_string())?;
            model.write(*writer, *offset, bytes);
            (0, 0)
        }
        Op::WriteLanes {
            writer0,
            lane_bytes,
            offset,
            bytes,
        } => {
            pm.write_visible_lanes(*writer0, *lane_bytes, *offset, bytes)
                .map_err(|e| e.to_string())?;
            for (lane, chunk) in bytes.chunks(*lane_bytes as usize).enumerate() {
                let off = offset + (lane as u64) * u64::from(*lane_bytes);
                model.write(writer0 + lane as WriterId, off, chunk);
            }
            (0, 0)
        }
        Op::PersistWriter(w) => (pm.persist_writer(*w), model.persist_writers_range(*w, 1)),
        Op::PersistWritersRange(w, n) => (
            pm.persist_writers_range(*w, *n),
            model.persist_writers_range(*w, *n),
        ),
        Op::CloseWriter(w) => (pm.close_writer(*w), model.close_writers_range(*w, 1)),
        Op::CloseWritersRange(w, n) => (
            pm.close_writers_range(*w, *n),
            model.close_writers_range(*w, *n),
        ),
        Op::DrainClosed => (pm.drain_closed(), model.drain_closed()),
        Op::PersistRange(off, len) => (
            pm.persist_range(*off, *len),
            model.persist_range(*off, *len),
        ),
        Op::WriteDurable { offset, bytes } => {
            pm.write_durable(*offset, bytes)
                .map_err(|e| e.to_string())?;
            model.write_durable(*offset, bytes);
            (0, 0)
        }
        Op::Crash(policy) => {
            let (got, want) = (pm.crash_with_policy(*policy), model.crash(*policy));
            if got != want {
                return Err(format!("crash report {got:?}, model {want:?}"));
            }
            (0, 0)
        }
    };
    if got != want {
        return Err(format!("returned {got}, model {want}"));
    }
    if pm.pending_line_count() != model.lines.len() {
        return Err(format!(
            "pending_line_count {}, model {}",
            pm.pending_line_count(),
            model.lines.len()
        ));
    }
    let closed = model.lines.values().filter(|l| l.closed).count();
    if pm.closed_line_count() != closed {
        return Err(format!(
            "closed_line_count {}, model {closed}",
            pm.closed_line_count()
        ));
    }
    let mut buf = vec![0u8; CAP as usize];
    pm.read(0, &mut buf).map_err(|e| e.to_string())?;
    if let Some(at) = buf.iter().zip(model.read()).position(|(a, b)| *a != b) {
        return Err(format!("read differs at byte {at}"));
    }
    pm.read_media(0, &mut buf).map_err(|e| e.to_string())?;
    if let Some(at) = buf.iter().zip(&model.media).position(|(a, b)| a != b) {
        return Err(format!("read_media differs at byte {at}"));
    }
    Ok(())
}

/// Runs one seeded op sequence of `ops` steps (crashes replaced by epoch
/// drains unless `crashes`); panics with a one-line repro on divergence.
fn run_case(seed: u64, ops: usize, crashes: bool) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut pm = PmDevice::new(CAP);
    let mut model = Model::new();
    for i in 0..ops {
        let op = match gen_op(&mut rng) {
            Op::Crash(_) if !crashes => Op::DrainClosed,
            op => op,
        };
        if let Err(what) = step(&mut pm, &mut model, &op) {
            panic!(
                "pm differential: op #{i} {}: {what} (repro: run_case({seed}, {ops}, {crashes}) \
                 in crates/sim/tests/pm_differential.rs)",
                op.summary()
            );
        }
    }
}

#[test]
fn pm_device_matches_reference_model() {
    for seed in 0..SEEDS {
        run_case(seed, OPS_PER_SEED, true);
    }
}

/// Long-lived pending state: with no crashes, bucket lists accumulate
/// stale entries from lines drained by other warps, by address and by
/// durable writes before their own warp fences.
#[test]
fn pm_device_matches_reference_model_without_crashes() {
    for seed in 1000..1000 + SEEDS / 4 {
        run_case(seed, 2 * OPS_PER_SEED, false);
    }
}

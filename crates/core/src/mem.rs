//! Bulk memory primitives: `gpm_memcpy` and `gpm_memset`.
//!
//! The libGPM artifact ships GPU-parallel `gpm_memcpy`/`gpm_memset` helpers
//! that stream data to PM with the GPU's full parallelism and persist it —
//! the building blocks checkpointing is made of. Each thread handles a
//! 512-byte chunk (a few coalesced lines), and fences once at the end of
//! its chunk, so long copies run at Optane's sequential-aligned bandwidth.

use gpm_gpu::{launch, FnKernel, LaunchConfig, ThreadCtx};
use gpm_sim::{Addr, Machine, MemSpace, Ns, SimResult};

use crate::map::with_persist_window;
use crate::persist::GpmThreadExt;

/// Bytes each GPU thread copies or sets.
const CHUNK: u64 = 512;

fn bulk_kernel(
    machine: &mut Machine,
    len: u64,
    persist: bool,
    body: impl Fn(&mut ThreadCtx<'_>, u64, usize) -> SimResult<()> + Copy,
) -> SimResult<Ns> {
    if len == 0 {
        return Ok(Ns::ZERO);
    }
    let threads = len.div_ceil(CHUNK);
    let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
        let i = ctx.global_id();
        let off = i * CHUNK;
        if off >= len {
            return Ok(());
        }
        let n = CHUNK.min(len - off) as usize;
        body(ctx, off, n)?;
        if persist {
            ctx.gpm_persist()?;
        }
        Ok(())
    });
    let r = launch(machine, LaunchConfig::for_elements(threads, 256), &k)?;
    Ok(r.elapsed)
}

/// GPU-parallel copy of `len` bytes from `src` to `dst`. When `dst` is in
/// PM, every thread persists its chunk: the copy is durable on return
/// (`gpm_memcpy`). Wraps itself in a persistence window when needed.
///
/// Returns elapsed time (the machine clock advances by it).
///
/// # Errors
///
/// Propagates out-of-bounds errors.
pub fn gpm_memcpy(machine: &mut Machine, dst: Addr, src: Addr, len: u64) -> SimResult<Ns> {
    if len == 0 {
        return Ok(Ns::ZERO);
    }
    let body = move |ctx: &mut ThreadCtx<'_>, off: u64, n: usize| -> SimResult<()> {
        let mut buf = vec![0u8; n];
        ctx.ld_bytes(src.add(off), &mut buf)?;
        ctx.st_bytes(dst.add(off), &buf)
    };
    if dst.space == MemSpace::Pm {
        let mut total = Ns::ZERO;
        with_persist_window(machine, |m| -> SimResult<()> {
            total = bulk_kernel(m, len, true, body)?;
            Ok(())
        })?;
        Ok(total + machine.cfg.ddio_toggle_overhead * 2.0)
    } else {
        bulk_kernel(machine, len, false, body)
    }
}

/// GPU-parallel fill of `len` bytes at `dst` with `value`, persisted when
/// `dst` is in PM (`gpm_memset`). Returns elapsed time.
///
/// # Errors
///
/// Propagates out-of-bounds errors.
pub fn gpm_memset(machine: &mut Machine, dst: Addr, value: u8, len: u64) -> SimResult<Ns> {
    if len == 0 {
        return Ok(Ns::ZERO);
    }
    let body = move |ctx: &mut ThreadCtx<'_>, off: u64, n: usize| -> SimResult<()> {
        ctx.st_bytes(dst.add(off), &vec![value; n])
    };
    if dst.space == MemSpace::Pm {
        let mut total = Ns::ZERO;
        with_persist_window(machine, |m| -> SimResult<()> {
            total = bulk_kernel(m, len, true, body)?;
            Ok(())
        })?;
        Ok(total + machine.cfg.ddio_toggle_overhead * 2.0)
    } else {
        bulk_kernel(machine, len, false, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memcpy_hbm_to_pm_is_durable() {
        let mut m = Machine::default();
        let src = m.alloc_hbm(10_000).unwrap();
        let dst = m.alloc_pm(10_000).unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        m.host_write(Addr::hbm(src), &data).unwrap();
        let t = gpm_memcpy(&mut m, Addr::pm(dst), Addr::hbm(src), 10_000).unwrap();
        assert!(t.0 > 0.0);
        m.crash();
        let mut buf = vec![0u8; 10_000];
        m.read(Addr::pm(dst), &mut buf).unwrap();
        assert_eq!(buf, data, "persisted copy survives the crash");
    }

    #[test]
    fn memcpy_pm_to_hbm_restores() {
        let mut m = Machine::default();
        let pm = m.alloc_pm(4_096).unwrap();
        let hbm = m.alloc_hbm(4_096).unwrap();
        m.host_write(Addr::pm(pm), &[7u8; 4096]).unwrap();
        gpm_memcpy(&mut m, Addr::hbm(hbm), Addr::pm(pm), 4_096).unwrap();
        assert_eq!(
            m.read_u64(Addr::hbm(hbm + 8)).unwrap(),
            u64::from_le_bytes([7; 8])
        );
    }

    #[test]
    fn memset_fills_and_persists() {
        let mut m = Machine::default();
        let pm = m.alloc_pm(5_000).unwrap();
        gpm_memset(&mut m, Addr::pm(pm), 0xAB, 5_000).unwrap();
        m.crash();
        let mut buf = vec![0u8; 5_000];
        m.read(Addr::pm(pm), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn odd_lengths_handled() {
        let mut m = Machine::default();
        let pm = m.alloc_pm(1_031).unwrap();
        gpm_memset(&mut m, Addr::pm(pm), 0x55, 1_031).unwrap();
        let mut buf = vec![0u8; 1_031];
        m.read(Addr::pm(pm), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x55));
        assert!(gpm_memset(&mut m, Addr::pm(pm), 0, 0).unwrap().is_zero());
    }

    #[test]
    fn long_copies_stream_at_peak_bandwidth() {
        let mut m = Machine::default();
        let src = m.alloc_hbm(1 << 20).unwrap();
        let dst = m.alloc_pm(1 << 20).unwrap();
        let t = gpm_memcpy(&mut m, Addr::pm(dst), Addr::hbm(src), 1 << 20).unwrap();
        let gbps = (1 << 20) as f64 / t.0;
        assert!(
            gbps > 0.7 * m.cfg.pm_bw_seq_aligned,
            "streaming copy too slow: {gbps:.1} GB/s"
        );
    }

    #[test]
    fn ddio_state_restored() {
        let mut m = Machine::default();
        let dst = m.alloc_pm(1024).unwrap();
        assert!(m.ddio_enabled());
        gpm_memset(&mut m, Addr::pm(dst), 1, 1024).unwrap();
        assert!(m.ddio_enabled(), "the persist window must close");
    }
}

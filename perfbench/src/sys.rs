//! Machine facts for the run header and the peak-memory metric, read
//! through system calls rather than files.

/// Peak resident set size of this process in MiB (`ru_maxrss`, the
/// kernel's `VmHWM`).  Every run is its own process, so one workload's peak
/// never leaks into another's.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    imp::peak_rss_kib().map(|kib| kib as f64 / 1024.0)
}

/// Total physical memory in bytes.
#[must_use]
pub fn total_memory_bytes() -> Option<u64> {
    imp::total_memory_bytes()
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod imp {
    /// `struct rusage`: two `timeval`s, then fourteen `long`s, the first
    /// being `ru_maxrss` (KiB).
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        longs: [i64; 14],
    }

    /// `struct sysinfo` of 64-bit Linux (112 bytes): `totalram` is the
    /// fifth word and `mem_unit` the `u32` at byte offset 104.
    #[repr(C)]
    struct SysInfo {
        words: [u64; 14],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
        fn sysinfo(info: *mut SysInfo) -> i32;
    }

    const RUSAGE_SELF: i32 = 0;

    pub fn peak_rss_kib() -> Option<u64> {
        let mut usage = RUsage {
            times: [0; 4],
            longs: [0; 14],
        };
        // SAFETY: `usage` is a writable, properly aligned buffer with the
        // size and layout of `struct rusage` on 64-bit Linux, which is all
        // `getrusage` writes.
        let status = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
        (status == 0).then(|| u64::try_from(usage.longs[0]).unwrap_or(0))
    }

    pub fn total_memory_bytes() -> Option<u64> {
        let mut info = SysInfo { words: [0; 14] };
        // SAFETY: `info` is a writable, 8-byte aligned buffer of exactly
        // `sizeof(struct sysinfo)` (112) bytes on 64-bit Linux, which is
        // all `sysinfo` writes.
        let status = unsafe { sysinfo(&mut info) };
        let unit = (info.words[13] & 0xffff_ffff).max(1);
        (status == 0).then(|| info.words[4].saturating_mul(unit))
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod imp {
    pub fn peak_rss_kib() -> Option<u64> {
        None
    }

    pub fn total_memory_bytes() -> Option<u64> {
        None
    }
}

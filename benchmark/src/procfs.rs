//! Process and host facts read from `/proc` and `/sys`.

use std::fs;

/// Bytes this process moved through read-like and write-like syscalls
/// (`rchar` / `wchar` of `/proc/self/io`): page-cache hits and socket
/// traffic included, which is what makes the amplification ratios
/// repeat on a sandbox whose disk never gets touched.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoCounters {
    pub rchar: u64,
    pub wchar: u64,
}

impl IoCounters {
    pub fn since(self, earlier: IoCounters) -> IoCounters {
        IoCounters {
            rchar: self.rchar - earlier.rchar,
            wchar: self.wchar - earlier.wchar,
        }
    }

    pub fn add(&mut self, other: IoCounters) {
        self.rchar += other.rchar;
        self.wchar += other.wchar;
    }
}

fn keyed_number(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

pub fn io_counters() -> IoCounters {
    let text = fs::read_to_string("/proc/self/io").unwrap_or_default();
    IoCounters {
        rchar: keyed_number(&text, "rchar:").unwrap_or(0),
        wchar: keyed_number(&text, "wchar:").unwrap_or(0),
    }
}

/// Resets the kernel's peak-RSS watermark to the current RSS.
pub fn reset_peak_rss() {
    // Refused in some sandboxes; the watermark then covers set-up too,
    // which only makes the reported peak an upper bound.
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` in MiB.
pub fn peak_rss_mib() -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    keyed_number(&text, "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// The sandbox the numbers came from.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub l2_kib: u64,
    pub l3_kib: u64,
}

fn cache_kib(level: u32) -> u64 {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).unwrap_or_default();
        if read("level").trim() == level.to_string() && read("type").trim() != "Instruction" {
            let size = read("size");
            let size = size.trim();
            let (digits, scale) = match size.strip_suffix('K') {
                Some(d) => (d, 1),
                None => match size.strip_suffix('M') {
                    Some(d) => (d, 1024),
                    None => (size, 0),
                },
            };
            return digits.parse::<u64>().unwrap_or(0) * scale;
        }
    }
    0
}

pub fn host() -> Host {
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        l2_kib: cache_kib(2),
        l3_kib: cache_kib(3),
    }
}

/// Bytes of every regular file under `root`.
pub fn dir_bytes(root: &std::path::Path) -> u64 {
    let Ok(entries) = fs::read_dir(root) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

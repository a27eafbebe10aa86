//! Receive-side scaling: the Toeplitz hash.
//!
//! IX relies on the NIC's flow-consistent hashing (RSS, [Microsoft's
//! specification]) to steer each TCP flow to exactly one hardware queue
//! and therefore one elastic thread — the foundation of the paper's
//! synchronization-free design (§3, §4.4). The hash is also why outbound
//! client connections must *probe the ephemeral port range*: the Toeplitz
//! hash cannot be inverted, so the client tries source ports until the
//! reply hashes to the desired queue (§4.4). Both behaviours need a real
//! implementation, so here it is, validated against the Microsoft
//! known-answer vectors.
//!
//! [Microsoft's specification]: https://learn.microsoft.com/windows-hardware/drivers/network/rss-hashing-types

use crate::ip::Ipv4Addr;

/// A 40-byte RSS secret key, enough for IPv4 5-tuples (12 byte input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RssKey(pub [u8; 40]);

/// The de-facto standard "well-known" RSS key from Microsoft's
/// verification suite, also the default of many NIC drivers (including
/// ixgbe, the Intel 82599 driver IX builds on).
pub const TOEPLITZ_DEFAULT_KEY: RssKey = RssKey([
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f,
    0xb0, 0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30,
    0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
]);

/// Computes the Toeplitz hash of `input` under `key`.
///
/// For each set bit of the input (most-significant first), XORs in the
/// 32-bit window of the key starting at that bit position. This bit loop
/// is the reference definition; the steering paths use the equivalent
/// table form, [`hash_ipv4_tuple`], and the tests check one against the
/// other.
pub fn toeplitz_hash(key: &RssKey, input: &[u8]) -> u32 {
    assert!(
        input.len() + 4 <= key.0.len(),
        "input of {} bytes needs a key of at least {} bytes",
        input.len(),
        input.len() + 4
    );
    let mut result = 0u32;
    // The sliding 32-bit window of the key, advanced one bit per input bit.
    let mut window = u32::from_be_bytes([key.0[0], key.0[1], key.0[2], key.0[3]]);
    let mut next_key_bit = 32; // Bit index (from MSB of the key) to shift in next.
    for &byte in input {
        for bit in (0..8).rev() {
            if byte >> bit & 1 == 1 {
                result ^= window;
            }
            // Slide the window one bit left, pulling in the next key bit.
            let kbyte = key.0[next_key_bit / 8];
            let kbit = kbyte >> (7 - next_key_bit % 8) & 1;
            window = window << 1 | kbit as u32;
            next_key_bit += 1;
        }
    }
    result
}

/// Bytes in the IPv4 4-tuple hash input.
const TUPLE_LEN: usize = 12;

/// A key's Toeplitz hash precomputed per input byte for the 12-byte IPv4
/// 4-tuple: entry `[i][b]` is the hash of an input that is zero except
/// for byte value `b` at offset `i`. The hash is linear over XOR, so a
/// tuple's hash is the XOR of its twelve byte entries — 12 lookups in
/// place of the 96-step bit loop.
pub struct RssTable([[u32; 256]; TUPLE_LEN]);

impl RssTable {
    /// Builds the table for `key`; a `const fn`, so a fixed key's table
    /// is computed at compile time.
    pub const fn new(key: &RssKey) -> RssTable {
        let k = &key.0;
        let mut table = [[0u32; 256]; TUPLE_LEN];
        let mut i = 0;
        while i < TUPLE_LEN {
            // Key bits 8i..8i+40: the windows of input byte i's 8 bits
            // start at offsets 0..8 of this span.
            let span = (k[i] as u64) << 32
                | (k[i + 1] as u64) << 24
                | (k[i + 2] as u64) << 16
                | (k[i + 3] as u64) << 8
                | k[i + 4] as u64;
            let mut b = 0;
            while b < 256 {
                let mut h = 0u32;
                let mut bit = 0;
                while bit < 8 {
                    if b >> (7 - bit) & 1 == 1 {
                        h ^= (span >> (8 - bit)) as u32;
                    }
                    bit += 1;
                }
                table[i][b] = h;
                b += 1;
            }
            i += 1;
        }
        RssTable(table)
    }
}

/// The table of [`TOEPLITZ_DEFAULT_KEY`], built at compile time.
pub static TOEPLITZ_DEFAULT_TABLE: RssTable = RssTable::new(&TOEPLITZ_DEFAULT_KEY);

/// Computes the RSS hash for an IPv4 TCP/UDP 4-tuple, in the canonical
/// input order: source address, destination address, source port,
/// destination port. Equal to [`toeplitz_hash`] under the table's key.
pub fn hash_ipv4_tuple(table: &RssTable, src: Ipv4Addr, dst: Ipv4Addr, src_port: u16, dst_port: u16) -> u32 {
    let mut input = [0u8; TUPLE_LEN];
    input[0..4].copy_from_slice(&src.octets());
    input[4..8].copy_from_slice(&dst.octets());
    input[8..10].copy_from_slice(&src_port.to_be_bytes());
    input[10..12].copy_from_slice(&dst_port.to_be_bytes());
    let mut hash = 0;
    for (row, &byte) in table.0.iter().zip(&input) {
        hash ^= row[byte as usize];
    }
    hash
}

/// Maps a hash to one of `n` queues the way the 82599 does: the low 7 bits
/// index a 128-entry redirection table, here filled round-robin.
pub fn queue_for_hash(hash: u32, n_queues: u16) -> u16 {
    debug_assert!(n_queues > 0);
    ((hash & 0x7f) % n_queues as u32) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    type Octets = (u8, u8, u8, u8);

    /// Microsoft RSS verification suite, IPv4-with-TCP-ports vectors.
    /// Columns: src ip:port, dst ip:port, expected hash.
    const VECTORS: &[(Octets, u16, Octets, u16, u32)] = &[
        ((66, 9, 149, 187), 2794, (161, 142, 100, 80), 1766, 0x51ccc178),
        ((199, 92, 111, 2), 14230, (65, 69, 140, 83), 4739, 0xc626b0ea),
        ((24, 19, 198, 95), 12898, (12, 22, 207, 184), 38024, 0x5c2b394a),
        ((38, 27, 205, 30), 48228, (209, 142, 163, 6), 2217, 0xafc7327f),
        ((153, 39, 163, 191), 44251, (202, 188, 127, 2), 1303, 0x10e828a2),
    ];

    #[test]
    fn microsoft_known_answers() {
        for &(s, sp, d, dp, expect) in VECTORS {
            let src = Ipv4Addr::new(s.0, s.1, s.2, s.3);
            let dst = Ipv4Addr::new(d.0, d.1, d.2, d.3);
            let got = hash_ipv4_tuple(&TOEPLITZ_DEFAULT_TABLE, src, dst, sp, dp);
            assert_eq!(got, expect, "vector {src}:{sp} -> {dst}:{dp}");
            let mut input = [0u8; 12];
            input[0..4].copy_from_slice(&src.octets());
            input[4..8].copy_from_slice(&dst.octets());
            input[8..10].copy_from_slice(&sp.to_be_bytes());
            input[10..12].copy_from_slice(&dp.to_be_bytes());
            assert_eq!(toeplitz_hash(&TOEPLITZ_DEFAULT_KEY, &input), expect, "bit loop");
        }
    }

    #[test]
    fn microsoft_ip_only_vectors() {
        // The 8-byte (addresses only) vectors from the same suite.
        const IP_ONLY: &[(Octets, Octets, u32)] = &[
            ((66, 9, 149, 187), (161, 142, 100, 80), 0x323e8fc2),
            ((199, 92, 111, 2), (65, 69, 140, 83), 0xd718262a),
            ((24, 19, 198, 95), (12, 22, 207, 184), 0xd2d0a5de),
            ((38, 27, 205, 30), (209, 142, 163, 6), 0x82989176),
            ((153, 39, 163, 191), (202, 188, 127, 2), 0x5d1809c5),
        ];
        for &(s, d, expect) in IP_ONLY {
            let mut input = [0u8; 8];
            input[0..4].copy_from_slice(&Ipv4Addr::new(s.0, s.1, s.2, s.3).octets());
            input[4..8].copy_from_slice(&Ipv4Addr::new(d.0, d.1, d.2, d.3).octets());
            assert_eq!(toeplitz_hash(&TOEPLITZ_DEFAULT_KEY, &input), expect);
        }
    }

    #[test]
    fn deterministic_and_flow_consistent() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let a = hash_ipv4_tuple(&TOEPLITZ_DEFAULT_TABLE, src, dst, 1000, 80);
        let b = hash_ipv4_tuple(&TOEPLITZ_DEFAULT_TABLE, src, dst, 1000, 80);
        assert_eq!(a, b);
        // A different source port gives (almost certainly) a different hash.
        let c = hash_ipv4_tuple(&TOEPLITZ_DEFAULT_TABLE, src, dst, 1001, 80);
        assert_ne!(a, c);
    }

    #[test]
    fn queue_mapping_in_range_and_balanced() {
        let n = 8u16;
        let mut counts = vec![0u32; n as usize];
        for port in 1000u16..3000 {
            let h = hash_ipv4_tuple(
                &TOEPLITZ_DEFAULT_TABLE,
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                port,
                80,
            );
            let q = queue_for_hash(h, n);
            assert!(q < n);
            counts[q as usize] += 1;
        }
        // Each queue should get a roughly fair share (within 3x of fair).
        let fair = 2000 / n as u32;
        for (q, &c) in counts.iter().enumerate() {
            assert!(c > fair / 3, "queue {q} starved: {c}");
        }
    }

    #[test]
    #[should_panic(expected = "needs a key")]
    fn oversized_input_panics() {
        let input = [0u8; 64];
        toeplitz_hash(&TOEPLITZ_DEFAULT_KEY, &input);
    }
}

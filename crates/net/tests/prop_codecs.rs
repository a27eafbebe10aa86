//! Property tests (ix-testkit harness) for the wire codecs: every header round-trips through
//! encode/decode, checksums detect single-bit corruption, and the
//! Toeplitz hash is stable under input reconstruction, its table form
//! agreeing with the bit-loop reference under any key.

use ix_testkit::prelude::*;

use ix_net::arp::ArpPacket;
use ix_net::eth::{EthHeader, EtherType, MacAddr};
use ix_net::ip::{IpProto, Ipv4Addr, Ipv4Header};
use ix_net::tcp::{TcpFlags, TcpHeader};
use ix_net::udp::UdpHeader;

props! {
    #[test]
    fn eth_roundtrip(dst in any::<[u8; 6]>(), src in any::<[u8; 6]>(), et in any::<u16>()) {
        let h = EthHeader {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: EtherType::from_u16(et),
        };
        let mut buf = [0u8; 14];
        h.encode(&mut buf);
        prop_assert_eq!(EthHeader::decode(&buf).unwrap(), h);
    }

    #[test]
    fn ipv4_roundtrip(
        tos in any::<u8>(),
        len in 20u16..1500,
        ident in any::<u16>(),
        ttl in 1u8..=255,
        proto in any::<u8>(),
        src in any::<u32>(),
        dst in any::<u32>(),
    ) {
        let h = Ipv4Header {
            tos,
            total_len: len,
            ident,
            ttl,
            proto: IpProto::from_u8(proto),
            src: Ipv4Addr(src),
            dst: Ipv4Addr(dst),
        };
        let mut buf = [0u8; 20];
        h.encode(&mut buf);
        prop_assert_eq!(Ipv4Header::decode(&buf).unwrap(), h);
    }

    #[test]
    fn ipv4_detects_any_single_bit_flip(
        src in any::<u32>(),
        dst in any::<u32>(),
        bit in 0usize..(20 * 8),
    ) {
        let h = Ipv4Header {
            tos: 0,
            total_len: 100,
            ident: 7,
            ttl: 64,
            proto: IpProto::Tcp,
            src: Ipv4Addr(src),
            dst: Ipv4Addr(dst),
        };
        let mut buf = [0u8; 20];
        h.encode(&mut buf);
        buf[bit / 8] ^= 1 << (bit % 8);
        // Any single-bit flip must fail decode: version/IHL corruption is
        // Unsupported, anything else BadChecksum — never a silent accept
        // of different content.
        if let Ok(got) = Ipv4Header::decode(&buf) {
            prop_assert_eq!(got, h);
        }
        // Restore and confirm it still parses.
        buf[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(Ipv4Header::decode(&buf).is_ok());
    }

    #[test]
    fn tcp_roundtrip_with_payload(
        sport in any::<u16>(),
        dport in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in any::<u8>(),
        window in any::<u16>(),
        mss in option::of(536u16..9000),
        wscale in option::of(0u8..=14),
        payload in collection::vec(any::<u8>(), 0..256),
    ) {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let h = TcpHeader {
            src_port: sport,
            dst_port: dport,
            seq,
            ack,
            flags: TcpFlags::from_u8(flags),
            window,
            mss,
            wscale,
        };
        let hlen = h.len();
        let mut buf = vec![0u8; hlen + payload.len()];
        buf[hlen..].copy_from_slice(&payload);
        let (head, tail) = buf.split_at_mut(hlen);
        h.encode(head, src, dst, tail);
        let (got, off) = TcpHeader::decode(&buf, src, dst).unwrap();
        prop_assert_eq!(got, h);
        prop_assert_eq!(&buf[off..], &payload[..]);
    }

    #[test]
    fn tcp_checksum_catches_payload_corruption(
        payload in collection::vec(any::<u8>(), 1..128),
        flip in any::<u8>(),
    ) {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let h = TcpHeader {
            src_port: 1, dst_port: 2, seq: 3, ack: 4,
            flags: TcpFlags::ACK, window: 5, mss: None, wscale: None,
        };
        let hlen = h.len();
        let mut buf = vec![0u8; hlen + payload.len()];
        buf[hlen..].copy_from_slice(&payload);
        let (head, tail) = buf.split_at_mut(hlen);
        h.encode(head, src, dst, tail);
        let idx = hlen + (flip as usize % payload.len());
        let delta = (flip | 1) ^ ((flip as u16 >> 1) as u8 & 0xfe);
        if delta != 0 {
            buf[idx] ^= delta;
            prop_assert!(TcpHeader::decode(&buf, src, dst).is_err());
        }
    }

    #[test]
    fn udp_roundtrip(
        sport in any::<u16>(),
        dport in any::<u16>(),
        payload in collection::vec(any::<u8>(), 0..256),
    ) {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let h = UdpHeader {
            src_port: sport,
            dst_port: dport,
            len: (8 + payload.len()) as u16,
        };
        let mut buf = vec![0u8; 8 + payload.len()];
        buf[8..].copy_from_slice(&payload);
        let (head, tail) = buf.split_at_mut(8);
        h.encode(head, src, dst, tail);
        prop_assert_eq!(UdpHeader::decode(&buf, src, dst).unwrap(), h);
    }

    #[test]
    fn arp_roundtrip(smac in any::<[u8;6]>(), sip in any::<u32>(), tip in any::<u32>()) {
        let p = ArpPacket::request(MacAddr(smac), Ipv4Addr(sip), Ipv4Addr(tip));
        let mut buf = [0u8; ArpPacket::LEN];
        p.encode(&mut buf);
        prop_assert_eq!(ArpPacket::decode(&buf).unwrap(), p);
        let r = p.reply_to(MacAddr([9; 6]));
        let mut buf2 = [0u8; ArpPacket::LEN];
        r.encode(&mut buf2);
        prop_assert_eq!(ArpPacket::decode(&buf2).unwrap(), r);
    }

    #[test]
    fn toeplitz_deterministic_and_port_sensitive(
        src in any::<u32>(), dst in any::<u32>(), sp in any::<u16>(), dp in any::<u16>(),
    ) {
        use ix_net::rss::{
            hash_ipv4_tuple, toeplitz_hash, RssKey, RssTable, TOEPLITZ_DEFAULT_KEY,
            TOEPLITZ_DEFAULT_TABLE,
        };
        /// A key other than the default, so the table builder is checked
        /// for more than the one key the steering paths use.
        const OTHER_KEY: RssKey = {
            let mut k = [0u8; 40];
            let mut i = 0;
            while i < 40 {
                k[i] = (i as u8).wrapping_mul(97) ^ 0xa5;
                i += 1;
            }
            RssKey(k)
        };
        static OTHER_TABLE: RssTable = RssTable::new(&OTHER_KEY);

        let a = hash_ipv4_tuple(&TOEPLITZ_DEFAULT_TABLE, Ipv4Addr(src), Ipv4Addr(dst), sp, dp);
        let b = hash_ipv4_tuple(&TOEPLITZ_DEFAULT_TABLE, Ipv4Addr(src), Ipv4Addr(dst), sp, dp);
        prop_assert_eq!(a, b);
        // The table path equals the reference bit loop, under the default
        // key and under another one.
        let mut input = [0u8; 12];
        input[0..4].copy_from_slice(&src.to_be_bytes());
        input[4..8].copy_from_slice(&dst.to_be_bytes());
        input[8..10].copy_from_slice(&sp.to_be_bytes());
        input[10..12].copy_from_slice(&dp.to_be_bytes());
        prop_assert_eq!(a, toeplitz_hash(&TOEPLITZ_DEFAULT_KEY, &input));
        prop_assert_eq!(
            hash_ipv4_tuple(&OTHER_TABLE, Ipv4Addr(src), Ipv4Addr(dst), sp, dp),
            toeplitz_hash(&OTHER_KEY, &input)
        );
        // Flipping the low bit of the source port changes the hash by a
        // fixed XOR pattern (linearity of Toeplitz); it must not be zero.
        let c = hash_ipv4_tuple(&TOEPLITZ_DEFAULT_TABLE, Ipv4Addr(src), Ipv4Addr(dst), sp ^ 1, dp);
        prop_assert_ne!(a, c);
        prop_assert_eq!(a ^ c, {
            let d = hash_ipv4_tuple(&TOEPLITZ_DEFAULT_TABLE, Ipv4Addr(0), Ipv4Addr(0), 1, 0);
            let z = hash_ipv4_tuple(&TOEPLITZ_DEFAULT_TABLE, Ipv4Addr(0), Ipv4Addr(0), 0, 0);
            d ^ z
        });
    }
}

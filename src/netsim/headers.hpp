// On-wire header formats for the simulated datacenter network.
//
// Frames are real byte sequences (Ethernet II + IPv4 + UDP/TCP) so that
// (i) link-level timing and all byte counters reflect true wire sizes,
// and (ii) the programmable-switch pipeline genuinely *parses* packets,
// exactly as a P4 parser would, instead of peeking at simulator-side
// metadata. Fields we do not exercise (checksums, fragmentation) are
// serialized as zeros but still occupy their wire bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/framebuf.hpp"

namespace daiet::sim {

using HostAddr = std::uint32_t;  ///< IPv4-style host address (we use host ids)
using MacAddr = std::uint64_t;   ///< lower 48 bits on the wire

inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr std::uint8_t kIpProtoTcp = 6;
inline constexpr std::uint8_t kIpProtoUdp = 17;

struct EthernetHeader {
    static constexpr std::size_t kSize = 14;

    MacAddr dst{0};
    MacAddr src{0};
    std::uint16_t ethertype{kEtherTypeIpv4};

    void serialize(ByteWriter& w) const;
};

/// The ECN codepoint in the low two bits of the IPv4 TOS byte.
/// Congestion Experienced is the only mark the fabric stamps: drop-tail
/// queues above their configured watermark set it in flight (RFC
/// 3168-flavoured), and the loss-tolerant transport reads it as an
/// early back-off signal.
inline constexpr std::uint8_t kEcnCongestionExperienced = 0x03;

struct Ipv4Header {
    static constexpr std::size_t kSize = 20;

    std::uint16_t total_length{0};  ///< IP header + L4 header + payload
    std::uint8_t ecn{0};            ///< ECN codepoint (low 2 TOS bits)
    std::uint8_t ttl{64};
    std::uint8_t protocol{kIpProtoUdp};
    HostAddr src{0};
    HostAddr dst{0};

    bool congestion_experienced() const noexcept {
        return (ecn & 0x03) == kEcnCongestionExperienced;
    }

    void serialize(ByteWriter& w) const;
};

struct UdpHeader {
    static constexpr std::size_t kSize = 8;

    std::uint16_t src_port{0};
    std::uint16_t dst_port{0};
    std::uint16_t length{0};  ///< UDP header + payload

    void serialize(ByteWriter& w) const;
};

struct TcpHeader {
    static constexpr std::size_t kSize = 20;

    static constexpr std::uint8_t kFlagFin = 0x01;
    static constexpr std::uint8_t kFlagSyn = 0x02;
    static constexpr std::uint8_t kFlagAck = 0x10;
    static constexpr std::uint8_t kFlagPsh = 0x08;

    std::uint16_t src_port{0};
    std::uint16_t dst_port{0};
    std::uint32_t seq{0};
    std::uint32_t ack{0};
    std::uint8_t flags{0};
    std::uint16_t window{0xffff};

    bool syn() const noexcept { return (flags & kFlagSyn) != 0; }
    bool fin() const noexcept { return (flags & kFlagFin) != 0; }
    bool ack_flag() const noexcept { return (flags & kFlagAck) != 0; }

    void serialize(ByteWriter& w) const;
};

/// Fixed per-frame overheads (header bytes in front of the L4 payload).
inline constexpr std::size_t kUdpFrameOverhead =
    EthernetHeader::kSize + Ipv4Header::kSize + UdpHeader::kSize;  // 42
inline constexpr std::size_t kTcpFrameOverhead =
    EthernetHeader::kSize + Ipv4Header::kSize + TcpHeader::kSize;  // 54

/// Build a complete UDP frame (Ethernet+IPv4+UDP+payload). The frame is
/// serialized straight into a pooled FrameBuf slab — no intermediate
/// vector.
FrameBuf build_udp_frame(HostAddr src, HostAddr dst,
                         std::uint16_t src_port, std::uint16_t dst_port,
                         std::span<const std::byte> payload);

/// Build a complete TCP frame (Ethernet+IPv4+TCP+payload).
FrameBuf build_tcp_frame(HostAddr src, HostAddr dst, TcpHeader tcp,
                         std::span<const std::byte> payload);

/// A parsed frame: headers plus the payload offset into the raw bytes.
struct ParsedFrame {
    EthernetHeader eth;
    Ipv4Header ip;
    std::optional<UdpHeader> udp;
    std::optional<TcpHeader> tcp;
    std::size_t payload_offset{0};

    std::span<const std::byte> payload_of(std::span<const std::byte> frame) const {
        return frame.subspan(payload_offset);
    }
};

/// Parse Ethernet+IPv4(+UDP/TCP). Throws BufferError on truncation;
/// returns std::nullopt for non-IPv4 ethertypes.
std::optional<ParsedFrame> parse_frame(std::span<const std::byte> frame);

/// Stamp Congestion Experienced into an already-serialized IPv4 frame
/// (the in-flight mark a congested queue applies without reparsing).
/// Returns false (frame untouched) for frames that are not IPv4.
bool mark_frame_ecn_ce(std::span<std::byte> frame) noexcept;

/// Rewrite the destination of an already-serialized IPv4 frame in
/// place (Ethernet dst MAC + IPv4 dst) — the header rewrite a steering
/// program (the kv directory tenant) performs before re-forwarding,
/// without reserializing the whole frame. Returns false (frame
/// untouched) for frames that are not IPv4.
bool rewrite_frame_ipv4_dst(std::span<std::byte> frame, HostAddr dst) noexcept;

}  // namespace daiet::sim

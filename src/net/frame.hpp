/**
 * @file
 * Length-prefixed binary framing over a net::Socket.
 *
 * Every message on a Hermes RPC connection is one frame:
 *
 * All integer fields are native-endian (see util/serialize.hpp: both
 * ends of a fleet must share an architecture; a big-endian peer fails
 * the magic check instead of silently mis-decoding).
 *
 *   offset  size  field
 *   0       4     magic   "HRMF" (u32 0x464d5248 on little-endian hosts)
 *   4       4     type    message type (serve/rpc.hpp enumerates them)
 *   8       8     id      request id, echoed in the response frame
 *   16      8     length  payload bytes that follow
 *   24      len   payload body encoded by util::ByteWriter
 *
 * recvFrame() validates the magic and caps the advertised length before
 * allocating, so a garbage or hostile peer yields IoStatus::Error, not
 * a multi-GB allocation. A peer that disappears mid-frame yields
 * IoStatus::Closed (a torn frame is never returned as a short Ok).
 */

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/net.hpp"

namespace hermes {
namespace net {

/** Frame magic: "HRMF" read as a u32 on a little-endian host. */
constexpr std::uint32_t kFrameMagic = 0x464d5248u;

/** Serialized frame header size in bytes. */
constexpr std::size_t kFrameHeaderBytes = 24;

/** Default cap on a single frame payload (64 MiB). */
constexpr std::size_t kDefaultMaxFramePayload =
    std::size_t(64) << 20;

/** One decoded frame. */
struct Frame
{
    std::uint32_t type = 0;
    std::uint64_t id = 0;
    std::string payload;
};

/**
 * Send one frame (header + payload in a single buffered write).
 * Returns the write status; Timeout means the peer stopped draining
 * before the deadline, Closed means it went away.
 */
IoStatus sendFrame(Socket &socket, std::uint32_t type, std::uint64_t id,
                   std::string_view payload,
                   const Deadline &deadline = Deadline());

/**
 * Receive one complete frame. @p max_payload bounds the advertised
 * payload length (Error beyond it, as for a bad magic). Closed with a
 * partially-read header/payload means the peer died mid-frame.
 */
IoStatus recvFrame(Socket &socket, Frame &frame,
                   const Deadline &deadline = Deadline(),
                   std::size_t max_payload = kDefaultMaxFramePayload);

} // namespace net
} // namespace hermes

#include "probes.h"

#include "crypto/aes128.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "net/envelope.h"

namespace perfbench {

using namespace p2pdrm;

namespace {

// Results are folded in here so the timed calls cannot be optimised away.
volatile std::uint64_t g_sink = 0;

/// Median over `batches` of the per-call time (µs) of `calls` calls of
/// fn(i), each batch wrapped in a benchmark span named `span`.
template <typename Fn>
double per_call_us(const char* span, std::size_t calls, std::size_t batches, Fn&& fn) {
  std::vector<double> per_call;
  per_call.reserve(batches);
  std::size_t i = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    Span s(profiler(), span);
    const std::int64_t t0 = now_ns();
    for (std::size_t c = 0; c < calls; ++c) fn(i++);
    per_call.push_back(static_cast<double>(now_ns() - t0) * 1e-3 /
                       static_cast<double>(calls));
  }
  return median(per_call);
}

}  // namespace

void run_probes(const ProbeInputs& in, std::uint64_t seed, Result& out) {
  crypto::SecureRandom rng(mix_seed(seed, 0x9b0be5));

  std::vector<util::Bytes> bodies;
  for (const core::SignedUserTicket& t : in.user_tickets) bodies.push_back(t.body);
  for (const core::SignedChannelTicket& t : in.channel_tickets) bodies.push_back(t.body);

  if (in.key_bits > 0 && !bodies.empty()) {
    std::vector<crypto::RsaKeyPair> keys;
    const double keygen_us = per_call_us("bench.crypto.rsa_keygen", 1, 5, [&](std::size_t) {
      keys.push_back(crypto::generate_rsa_keypair(rng, in.key_bits));
    });
    out.metric_if_absent("crypto.rsa_keygen_ms", keygen_us * 1e-3, "ms");
    const crypto::RsaKeyPair& kp = keys.front();

    std::vector<util::Bytes> sigs;
    for (const util::Bytes& b : bodies) sigs.push_back(crypto::rsa_sign(kp.priv, b));
    out.metric_if_absent("crypto.rsa_sign_us",
        per_call_us("bench.crypto.rsa_sign", 8, 15, [&](std::size_t i) {
          g_sink = g_sink + crypto::rsa_sign(kp.priv, bodies[i % bodies.size()]).size();
        }), "us");
    out.metric_if_absent("crypto.rsa_verify_us",
        per_call_us("bench.crypto.rsa_verify", 16, 15, [&](std::size_t i) {
          const std::size_t k = i % bodies.size();
          g_sink = g_sink + crypto::rsa_verify(kp.pub, bodies[k], sigs[k]);
        }), "us");
    // The JOIN handshake's RSA decrypt: a 48-byte session key under the
    // joining client's key.
    std::vector<util::Bytes> cts;
    for (int i = 0; i < 8; ++i) {
      cts.push_back(crypto::rsa_encrypt(kp.pub, rng.bytes(48), rng));
    }
    out.metric_if_absent("crypto.rsa_decrypt_us",
        per_call_us("bench.crypto.rsa_decrypt", 8, 15, [&](std::size_t i) {
          g_sink = g_sink + crypto::rsa_decrypt(kp.priv, cts[i % cts.size()])->size();
        }), "us");
  }

  if (in.binary_bytes > 0) {
    const util::Bytes binary = rng.bytes(in.binary_bytes);
    const double us = per_call_us("bench.crypto.sha256", 4, 15, [&](std::size_t) {
      g_sink = g_sink + crypto::sha256(binary)[0];
    });
    out.metric_if_absent("crypto.sha256_mb_per_s",
                         static_cast<double>(binary.size()) / us, "MB/s");
    // Challenge-sized MAC: 32-byte farm secret over a 64-byte message.
    const util::Bytes key = rng.bytes(32);
    const util::Bytes msg = rng.bytes(64);
    out.metric_if_absent("crypto.hmac_us",
        per_call_us("bench.crypto.hmac", 64, 15, [&](std::size_t) {
          g_sink = g_sink + crypto::hmac_sha256(key, msg)[0];
        }), "us");
  }

  if (!in.channels.empty() && !in.user_tickets.empty()) {
    const std::size_t pairs = in.channels.size() * in.user_tickets.size();
    out.metric_if_absent("core.policy_eval_us",
        per_call_us("bench.core.policy_eval", 32, 15, [&](std::size_t i) {
          const std::size_t k = i % pairs;
          const core::SignedUserTicket& ut = in.user_tickets[k / in.channels.size()];
          const core::EvalResult r = core::evaluate_policies(
              in.channels[k % in.channels.size()], ut.ticket.attributes,
              ut.ticket.start_time);
          g_sink = g_sink + static_cast<std::uint64_t>(r.decision);
        }), "us");
  }

  if (!in.user_tickets.empty() && !in.channel_tickets.empty()) {
    // One user-ticket and one channel-ticket encode/decode round trip.
    out.metric_if_absent("core.ticket_codec_us",
        per_call_us("bench.core.ticket_codec", 16, 15, [&](std::size_t i) {
          const auto& ut = in.user_tickets[i % in.user_tickets.size()];
          const auto& ct = in.channel_tickets[i % in.channel_tickets.size()];
          g_sink = g_sink + core::SignedUserTicket::decode(ut.encode()).body.size() +
                   core::SignedChannelTicket::decode(ct.encode()).body.size();
        }) / 2, "us");
  }

  if (!in.payloads.empty()) {
    const core::ContentKey key = core::generate_content_key(rng, 1, 0);
    std::vector<core::ContentPacket> packets;
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < in.payloads.size(); ++i) {
      packets.push_back(core::encrypt_packet(key, 1, i, in.payloads[i]));
      bytes += in.payloads[i].size();
    }
    const crypto::AesCtr ctr(key.key, key.nonce);
    util::Bytes scratch;
    const double pass_us = per_call_us("bench.crypto.aes_ctr", 1, 15, [&](std::size_t) {
      for (const util::Bytes& p : in.payloads) {
        scratch.assign(p.begin(), p.end());
        ctr.crypt(scratch);
        g_sink = g_sink + scratch[0];
      }
    });
    out.metric_if_absent("crypto.aes_ctr_mb_per_s",
                         static_cast<double>(bytes) / pass_us, "MB/s");
    out.metric_if_absent("core.content_decrypt_us",
        per_call_us("bench.core.content_decrypt", packets.size(), 15, [&](std::size_t i) {
          g_sink = g_sink + core::decrypt_packet(key, packets[i % packets.size()])->size();
        }), "us");
    // Envelope framing of the smallest (one TS packet) content packets.
    std::vector<util::Bytes> small;
    for (const core::ContentPacket& p : packets) {
      if (p.payload.size() <= 188) small.push_back(p.encode());
    }
    if (!small.empty()) {
      out.metric_if_absent("net.envelope_codec_us",
          per_call_us("bench.net.envelope_codec", 64, 15, [&](std::size_t i) {
            net::Envelope env;
            env.kind = net::MsgKind::kContent;
            env.payload = small[i % small.size()];
            g_sink = g_sink + net::Envelope::decode(env.encode())->payload.size();
          }), "us");
    }
  }
}

}  // namespace perfbench

// Fuzz target: the version-2 binary release formats — `.kpf` bundles
// (KZBUNDLE, through BOTH load paths) and KZDELTA delta artifacts.
//
// Contract under test (support/errors.h): fed any byte string, each
// loader either returns a valid artifact or throws a kizzle::Error
// subclass — never UB, never unbounded allocation, never another
// exception type. For bundles this harness is also a differential
// oracle: the istream copy-in loader and the in-place std::span loader
// must agree on accept/reject and on the loaded signature count, or the
// two deployment paths could serve different databases from one file.
//
// The custom mutator below is what buys coverage PAST the checksum
// gates: random byte flips die at the whole-payload checksum with
// probability ~1, so it parses the real header fields, mutates inside
// the payload (lengths, section directory, table bytes, lineage
// fingerprints) and then re-seals the checksum with the production
// kizzle::checksum_update. It is self-contained (xorshift, no
// LLVMFuzzerMutate) so it links under both libFuzzer and the GCC
// standalone driver, which invokes it through a weak symbol.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <string_view>

#include "core/sigdb.h"
#include "support/errors.h"
#include "support/hash.h"

namespace {

bool has_magic(const std::uint8_t* data, std::size_t size,
               std::string_view magic) {
  return size >= 8 && std::memcmp(data, magic.data(), 8) == 0;
}

std::uint64_t u64_at(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void put_u64(std::uint8_t* p, std::uint64_t v) {
  std::memcpy(p, &v, sizeof v);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  if (has_magic(data, size, kizzle::core::kDeltaMagic)) {
    std::istringstream is(bytes);
    try {
      const kizzle::core::DeltaArtifact delta = kizzle::core::load_delta(is);
      (void)delta;
    } catch (const kizzle::Error&) {
      // Typed rejection is the expected outcome for malformed bytes.
    }
    return 0;
  }

  // Everything else goes through both bundle loaders; they must agree.
  bool stream_ok = false, span_ok = false;
  std::size_t stream_sigs = 0, span_sigs = 0;
  try {
    std::istringstream is(bytes);
    stream_sigs = kizzle::core::load_artifact(is).signatures.size();
    stream_ok = true;
  } catch (const kizzle::Error&) {
  }
  try {
    span_sigs =
        kizzle::core::load_artifact(
            std::span<const std::byte>(
                reinterpret_cast<const std::byte*>(data), size))
            .signatures.size();
    span_ok = true;
  } catch (const kizzle::Error&) {
  }
  if (stream_ok != span_ok || (stream_ok && stream_sigs != span_sigs)) {
    __builtin_trap();  // the two load paths diverged on one input
  }
  return 0;
}

// ----------------------- structure-aware mutator -----------------------

namespace {

struct XorShift {
  std::uint64_t s;
  explicit XorShift(unsigned seed) : s(seed | 1u) {}
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  std::size_t below(std::size_t n) { return n ? next() % n : 0; }
};

// Values that probe boundary checks when dropped into a length field.
std::uint64_t interesting_u64(XorShift& rng) {
  static const std::uint64_t kValues[] = {
      0,          1,          7,           8,
      63,         64,         255,         4096,
      0x7FFFFFFF, 0xFFFFFFFF, 1ull << 30,  (1ull << 30) + 1,
      1ull << 40, ~0ull,      ~0ull - 7,
  };
  return kValues[rng.below(sizeof(kValues) / sizeof(kValues[0]))];
}

// Flip/overwrite a few bytes anywhere in [begin, end).
void scribble(std::uint8_t* data, std::size_t begin, std::size_t end,
              XorShift& rng) {
  if (end <= begin) return;
  const std::size_t n = 1 + rng.below(8);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t at = begin + rng.below(end - begin);
    data[at] = static_cast<std::uint8_t>(rng.next());
  }
}

// KZDELTA: ... | u64 payload_size@16 | payload@24 | u64 checksum.
// Mutate inside the payload (occasionally a whole u64 field at its
// start: base/result fingerprint, n_retired, db_len), then re-seal.
std::size_t mutate_delta(std::uint8_t* data, std::size_t size,
                         XorShift& rng) {
  const std::size_t kPayloadAt = 24;
  if (size < kPayloadAt + 8) return size;
  const std::uint64_t declared = u64_at(data + 16);
  if (declared > size - kPayloadAt - 8) return size;  // already hostile
  const std::size_t payload = static_cast<std::size_t>(declared);

  switch (rng.below(4)) {
    case 0:  // a u64 field at the head of the payload
      if (payload >= 32) {
        put_u64(data + kPayloadAt + 8 * rng.below(4), interesting_u64(rng));
      }
      break;
    case 1:  // the retired list / embedded db text
      scribble(data, kPayloadAt + 32, kPayloadAt + payload, rng);
      break;
    case 2:  // anywhere in the payload
      scribble(data, kPayloadAt, kPayloadAt + payload, rng);
      break;
    default:  // leave the checksum stale: the gate itself stays fuzzed
      scribble(data, 0, size, rng);
      return size;
  }
  std::uint64_t sum = kizzle::kChecksumBasis;
  kizzle::checksum_update(sum, data + kPayloadAt, payload);
  put_u64(data + kPayloadAt + payload, sum);
  return size;
}

// KZBUNDLE v2: u64 db_len@16 | db text@24 | pad to 64 | KZPF v2 blob.
// Inside the blob: u64 payload_size@blob+16, payload = blob[0, ps),
// u64 checksum@blob+ps. Mutate the db text (no checksum there) or the
// prefilter payload — registrations, section directory, table bytes —
// then re-seal the prefilter checksum.
std::size_t mutate_bundle(std::uint8_t* data, std::size_t size,
                          XorShift& rng) {
  const std::size_t kDbAt = 24;
  if (size < kDbAt) return size;
  const std::uint64_t db_len64 = u64_at(data + 16);
  if (db_len64 > size - kDbAt) return size;
  const std::size_t db_len = static_cast<std::size_t>(db_len64);
  const std::size_t blob_at =
      kDbAt + db_len + (64 - (kDbAt + db_len) % 64) % 64;

  if (blob_at >= size || rng.below(3) == 0) {
    // The embedded signature text: parsed line-by-line, no checksum.
    scribble(data, kDbAt, kDbAt + db_len, rng);
    return size;
  }
  const std::size_t blob_size = size - blob_at;
  std::uint8_t* blob = data + blob_at;
  if (blob_size < 24 + 8) return size;
  const std::uint64_t ps64 = u64_at(blob + 16);
  if (ps64 < 24 || ps64 > blob_size - 8) {  // already hostile
    scribble(data, blob_at, size, rng);
    return size;
  }
  const std::size_t ps = static_cast<std::size_t>(ps64);
  switch (rng.below(4)) {
    case 0:  // header counts (n_ids, id_limit, alpha_size) at blob+24
      put_u64(blob + 24 + 8 * rng.below(3), interesting_u64(rng));
      break;
    case 1:  // early payload: alphabet map + registrations
      scribble(blob, 48, std::min(ps, std::size_t{48} + 1024), rng);
      break;
    case 2:  // late payload: section directory + table bytes
      scribble(blob, ps / 2, ps, rng);
      break;
    default:  // stale checksum path
      scribble(data, 0, size, rng);
      return size;
  }
  std::uint64_t sum = kizzle::kChecksumBasis;
  kizzle::checksum_update(sum, blob, ps);
  put_u64(blob + ps, sum);
  return size;
}

}  // namespace

extern "C" std::size_t LLVMFuzzerCustomMutator(std::uint8_t* data,
                                               std::size_t size,
                                               std::size_t max_size,
                                               unsigned int seed) {
  XorShift rng(seed);
  if (has_magic(data, size, kizzle::core::kDeltaMagic)) {
    return mutate_delta(data, size, rng);
  }
  if (has_magic(data, size, kizzle::core::kArtifactMagic)) {
    return mutate_bundle(data, size, rng);
  }
  // Unrecognized input: plain scribble keeps the magic dispatch fuzzed.
  if (size == 0 && max_size > 0) {
    data[0] = static_cast<std::uint8_t>(rng.next());
    return 1;
  }
  scribble(data, 0, size, rng);
  return size;
}

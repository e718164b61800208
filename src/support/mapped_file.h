// Read-only file mapping for copy-free artifact verification.
//
// A release artifact's serialized automaton tables run to megabytes, and
// every load checksums and validates them; heap-copying them first would
// double that cost. MappedFile mmap()s the file PROT_READ, so every
// process on one box shares the same page-cache pages and the loader
// verifies the bytes in place.
// When mmap is unavailable (exotic filesystems, zero-length files, or
// non-POSIX hosts) it degrades to a single heap read with identical
// semantics — callers only ever see bytes().
//
// The mapping is immutable and movable, never copyable. Views into
// bytes() are valid while the MappedFile lives; the loaders copy out what
// they keep, so nothing outlives the call that reads the mapping.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace kizzle::support {

class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  // Opens and maps `path` read-only. Throws kizzle::InputError when the
  // file cannot be opened or read; an unmappable but readable file falls
  // back to a heap read (mapped() is false then).
  static MappedFile open(const std::string& path);

  const std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::span<const std::byte> bytes() const { return {data_, size_}; }

  // True when the bytes live in an mmap'd region (page cache shared),
  // false on the read fallback (private heap copy).
  bool mapped() const { return map_ != nullptr; }

 private:
  void* map_ = nullptr;        // mmap base, or nullptr on the fallback
  std::size_t map_len_ = 0;    // mmap length (for munmap)
  std::vector<std::byte> fallback_;
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace kizzle::support

// gompresso::open(): format-agnostic session opening.
//
// One call sniffs the container magic (format/sniff.hpp), builds or
// loads the matching ContainerBackend, and returns a ready
// DecodeSession — so every consumer (gomp cat/range/serve/verify, the
// net daemon, decompress_file() on a regular file) gets prefetch, LRU
// caching, retry/backoff, damage-tolerant reads, and serve.* metrics
// regardless of whether the bytes are GMPZ, GMPS, or gzip.
//
// Backend map (who handles what):
//
//   magic                 backend                     seek table
//   ------------------    ------------------------   -------------------------
//   GMPZ / GMPS           serve::make_gmpz_backend    serve::SeekIndex (header
//                                                     scan, "GMPX" sidecar)
//   1F 8B 08 (gzip)       ingest::make_gzip_backend   ingest::GzipIndex
//                                                     (discovered by parallel
//                                                     speculative decode,
//                                                     "GZIX" sidecar)
//
// This is the only way the library builds a session or a server
// backend; callers that already hold an index construct the backend
// themselves (serve::make_gmpz_backend) and pass it to the
// three-argument DecodeSession / net::Server constructors. Every knob
// has one home: scheduling on OpenOptions::session, decode choices on
// OpenOptions::decode, gzip index geometry on OpenOptions::gzip.
//
// OpenOptions::sidecar_path points at a checkpointed seek table of
// either flavor; the sidecar's own magic picks the loader, and a
// sidecar of the wrong flavor for the sniffed container is a
// FormatError. With a valid sidecar, open() does no data scan at all —
// reopen cost is proportional to the sidecar, not the stream.
#pragma once

#include <memory>
#include <string>

#include "format/sniff.hpp"
#include "ingest/gzip_index.hpp"
#include "serve/backend.hpp"
#include "serve/decode_session.hpp"

namespace gompresso {

struct OpenOptions {
  /// Session tuning, passed through to the DecodeSession (and used to
  /// resolve the gzip index-build pool when `gzip.pool` is unset).
  serve::SessionOptions session;
  /// Decode knobs (the DecodeOptions decompress() extends), passed
  /// straight to the backend open_backend() builds. The gzip backend
  /// ignores them: its index build always checks every member's
  /// CRC32/ISIZE, and it has no strategy to choose.
  DecodeOptions decode;
  /// Optional checkpointed seek table ("GMPX" or "GZIX"); empty = scan
  /// the source. A missing file is an error — callers that treat the
  /// sidecar as a cache should stat it first (as `gomp` does).
  std::string sidecar_path;
  /// Gzip index-build tuning. `gzip.pool` defaults to the session's
  /// decode pool resolution: a pool sized by options.session.num_threads
  /// (0 = the shared default pool, 1 = sequential).
  ingest::GzipIndexOptions gzip;
};

/// The container kind `source`'s leading bytes name.
format::ContainerKind sniff_source(serve::ByteSource& source);

/// Sniffs `source` and returns the matching backend (shared: a backend
/// may serve several sessions). Throws FormatError for an unrecognized
/// container.
std::shared_ptr<serve::ContainerBackend> open_backend(
    serve::ByteSource& source, const OpenOptions& options = {});

/// Opens a ready session over `source` (takes ownership).
std::unique_ptr<serve::DecodeSession> open(
    std::unique_ptr<serve::ByteSource> source, const OpenOptions& options = {});

/// Opens a ready session over a file path (pread-backed source).
std::unique_ptr<serve::DecodeSession> open(const std::string& path,
                                           const OpenOptions& options = {});

}  // namespace gompresso

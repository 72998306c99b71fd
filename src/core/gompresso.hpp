// Umbrella public header for the Gompresso library.
//
// Quickstart:
//
//   #include "core/gompresso.hpp"
//
//   gompresso::CompressOptions opt;            // paper §V defaults
//   opt.codec = gompresso::Codec::kBit;        // or kByte
//   gompresso::Bytes file = gompresso::compress(input, opt);
//   gompresso::Bytes back = gompresso::decompress_bytes(file);
//
// Decode knobs live in one type, DecodeOptions (`strategy`, unset =
// pick from the header; `verify_checksums`). DecompressOptions adds
// `num_threads`; OpenOptions::decode is the same type. E.g. force MRR:
//   dopt.strategy = gompresso::Strategy::kMultiRound;
//
// Reading any supported container (native GMPZ/GMPS or gzip) goes
// through one front door:
//
//   gompresso::OpenOptions oopt;
//   oopt.session.num_threads = 4;                // scheduling knobs
//   oopt.decode.verify_checksums = true;         // same DecodeOptions
//   auto session = gompresso::open("data.gz", oopt);  // sniffs the magic
//   session->read_at(offset, span);              // prefetch + cache
//
// Backend map — open() dispatches on the leading bytes:
//   GMPZ/GMPS -> serve::make_gmpz_backend (SeekIndex from the header,
//                "GMPX" sidecar checkpoint)
//   gzip      -> ingest::make_gzip_backend (GzipIndex discovered by
//                speculative parallel decode, "GZIX" sidecar)
// A caller holding a pre-built index builds the backend itself and
// passes it to DecodeSession's (or net::Server's) backend constructor;
// there is no other way to construct either. See core/open.hpp for
// OpenOptions (sidecars, decode knobs, gzip chunking) and
// serve/backend.hpp for the ContainerBackend seam itself.
//
// See README.md for the architecture overview and DESIGN.md for the
// paper-to-module map.
#pragma once

#include "core/compressor.hpp"        // IWYU pragma: export
#include "core/decompressor.hpp"      // IWYU pragma: export
#include "core/open.hpp"              // IWYU pragma: export
#include "core/options.hpp"           // IWYU pragma: export
#include "core/stream.hpp"            // IWYU pragma: export
#include "obs/metrics.hpp"            // IWYU pragma: export
#include "obs/trace.hpp"              // IWYU pragma: export
#include "serve/decode_session.hpp"   // IWYU pragma: export

namespace gompresso {
/// The serve subsystem's streaming session, re-exported for the common
/// "open a file and read from it" use (see serve/decode_session.hpp).
using serve::DecodeSession;
/// One coherent snapshot of the process-wide metrics registry (see
/// obs/metrics.hpp for the registry and obs/trace.hpp for the tracer).
using obs::metrics_snapshot;
}  // namespace gompresso

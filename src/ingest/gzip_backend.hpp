// GzipBackend: serves an RFC 1952 gzip stream through the
// serve::ContainerBackend seam, so a DecodeSession (and everything on
// top of it — prefetch, LRU cache, retry/backoff, damage-tolerant
// reads, the net daemon) works on .gz exactly as on the native
// container. Each "block" is one GzipChunk of the discovered index:
// decode stages the chunk's compressed byte extent, then re-inflates
// it with its checkpointed 32 KiB start window — no markers, no
// dependence on neighbouring chunks.
#pragma once

#include <memory>

#include "ingest/gzip_index.hpp"
#include "serve/backend.hpp"

namespace gompresso::ingest {

/// Wraps a prebuilt (GzipIndex::build) or sidecar-loaded index;
/// gompresso::open_backend() does both for gzip sources.
std::shared_ptr<serve::ContainerBackend> make_gzip_backend(GzipIndex index);

}  // namespace gompresso::ingest

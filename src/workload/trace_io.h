// Plain-text trace format for saving and replaying workloads.
//
// Format (one record per line):
//
//   aalo-trace 1
//   ports <num_ports>
//   job <job_id> <arrival_s> <compute_s> <num_coflows>
//   coflow <ext>.<int> <arrival_offset_s> <num_flows> [sa=<ext>.<int>,...]
//          [fb=<ext>.<int>,...] [dl=<deadline_s>]
//   flow <src> <dst> <bytes> <start_offset_s>
//
// Coflows follow their job line; flows follow their coflow line, and each
// job and coflow must carry exactly the number of records it declares.
// This is deliberately close to the published coflow-benchmark format so
// traces are easy to eyeball and diff.
//
// Exact grammar, as readTrace accepts it:
//   - Lines end in '\n'; a trailing '\r' (CRLF) is a separator like any
//     other. Everything from a '#' to the end of its line is a comment;
//     lines left blank are skipped.
//   - Fields are separated by runs of ' ', '\t' and '\r' only.
//   - Each record has exactly the fields shown, no more and no fewer.
//   - A number is the whole field, in std::from_chars syntax: integers
//     are plain decimal with an optional '-' (never '+'); doubles are
//     decimal or scientific and must be finite (no nan, inf or
//     out-of-range exponent). Ids split at the first '.' into two
//     integers; empty items in an sa=/fb= list are skipped.
// Anything else is a std::runtime_error naming the line; the parsed
// workload then goes through Workload::validate().
//
// writeTrace emits integers as `%lld` and doubles as `%.17g`, so every
// value reads back bit-identically and write -> read -> write is the
// identity on the text.
#pragma once

#include <iosfwd>
#include <string>

#include "coflow/spec.h"

namespace aalo::workload {

void writeTrace(std::ostream& os, const coflow::Workload& workload);
void writeTraceFile(const std::string& path, const coflow::Workload& workload);

/// Parses a trace; throws std::runtime_error with a line number on any
/// malformed input, and validates the resulting workload.
coflow::Workload readTrace(std::istream& is);
coflow::Workload readTraceFile(const std::string& path);

/// Reads the public *coflow-benchmark* format (github.com/coflow;
/// e.g. FB2010-1Hr-150-0.txt — the very trace the paper replays):
///
///   <numRacks> <numJobs>
///   <jobID> <arrivalMillis> <numMappers> <m_1> ... <numReducers>
///          <r_1>:<shuffleMB_1> ...
///
/// Fields follow the aalo-trace number and separator rules above; line
/// breaks only locate errors (std::runtime_error naming the line).
/// Mapper/reducer locations are rack numbers (1-based in the published
/// trace); each mapper sends an equal share of a reducer's shuffle to it.
/// Jobs become single-coflow jobs on a numRacks-port fabric.
coflow::Workload readCoflowBenchmarkTrace(std::istream& is);
coflow::Workload readCoflowBenchmarkTraceFile(const std::string& path);

}  // namespace aalo::workload

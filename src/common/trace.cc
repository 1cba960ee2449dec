#include "common/trace.h"

#include <cstdio>

#include "common/types.h"

namespace fdb {

namespace {

// Human-readable wall time, us/ms/s to three significant-ish digits.
// Deliberately local: common/ must not depend on bench_util/.
std::string FmtTraceTime(double seconds) {
  char buf[32];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1fus", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
  }
  return buf;
}

}  // namespace

int QueryTrace::OpenSpan(std::string_view name) {
  Span s;
  s.name = std::string(name);
  if (!open_.empty()) {
    s.parent = open_.back();
    s.depth = spans_[static_cast<size_t>(s.parent)].depth + 1;
  }
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  open_.push_back(index);
  return index;
}

void QueryTrace::CloseSpan(int index, double seconds) {
  FDB_CHECK_MSG(!open_.empty() && open_.back() == index,
                "trace spans must close LIFO (innermost first)");
  spans_[static_cast<size_t>(index)].seconds = seconds;
  open_.pop_back();
}

void QueryTrace::RecordSpan(std::string_view name, double seconds) {
  CloseSpan(OpenSpan(name), seconds);
}

void QueryTrace::SetRows(int index, uint64_t rows) {
  Span& s = spans_[static_cast<size_t>(index)];
  s.rows = rows;
  s.has_rows = true;
}

void QueryTrace::SetRowsIn(int index, uint64_t rows) {
  Span& s = spans_[static_cast<size_t>(index)];
  s.rows_in = rows;
  s.has_rows_in = true;
}

void QueryTrace::SetBytes(int index, uint64_t bytes) {
  Span& s = spans_[static_cast<size_t>(index)];
  s.bytes = bytes;
  s.has_bytes = true;
}

double QueryTrace::TotalSeconds() const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.seconds;
  }
  return total;
}

std::string QueryTrace::Render() const {
  std::string out = "EXPLAIN ANALYZE\n";
  for (const Span& s : spans_) {
    out.append(static_cast<size_t>(s.depth) * 2, ' ');
    out += s.name;
    out += "  time=";
    out += FmtTraceTime(s.seconds);
    if (s.has_rows_in) {
      out += " rows_in=";
      out += std::to_string(s.rows_in);
    }
    if (s.has_rows) {
      out += " rows=";
      out += std::to_string(s.rows);
    }
    if (s.has_bytes) {
      out += " bytes=";
      out += std::to_string(s.bytes);
    }
    out += '\n';
  }
  out += "-- total ";
  out += FmtTraceTime(TotalSeconds());
  out += ", ";
  out += std::to_string(spans_.size());
  out += " spans\n";
  return out;
}

}  // namespace fdb

// Pins for the reports a differential leg makes under a mutation hook.
//
// A pin keeps what a report means, not how it is worded: its kind, its round
// and the processes its detail names — the first "pS->pD" (the differ writes
// send records as "S->D", without the p), else the first "pX", else "".
// Detail sentences may change wording without moving a pin; a report that
// appears, vanishes, moves round or names other processes does move it.
#pragma once

#include <regex>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "sim/history.h"

namespace ftss::testing {

using DivergencePin = std::tuple<std::string, Round, std::string>;

inline std::string pinned_processes(const std::string& detail) {
  static const std::regex pair(R"(\bp?(\d+)->p?(\d+))");
  static const std::regex one(R"(\bp(\d+)\b)");
  std::smatch m;
  if (std::regex_search(detail, m, pair)) {
    return "p" + m[1].str() + "->p" + m[2].str();
  }
  if (std::regex_search(detail, m, one)) return "p" + m[1].str();
  return "";
}

// Works on any report list whose entries have kind, round and detail.
template <typename Reports>
std::vector<DivergencePin> divergence_pins(const Reports& reports) {
  std::vector<DivergencePin> pins;
  for (const auto& d : reports) {
    pins.emplace_back(d.kind, d.round, pinned_processes(d.detail));
  }
  return pins;
}

// The pins as a C++ initializer list, so a failure message can be pasted
// back into the table when a change is meant to move them.
inline std::string render_pins(const std::vector<DivergencePin>& pins) {
  std::ostringstream os;
  os << "{";
  for (const auto& [kind, round, who] : pins) {
    os << "{\"" << kind << "\", " << round << ", \"" << who << "\"}, ";
  }
  os << "}";
  return os.str();
}

}  // namespace ftss::testing

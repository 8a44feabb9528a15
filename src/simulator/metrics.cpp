#include "simulator/metrics.hpp"

#include <algorithm>
#include <sstream>

namespace dsnd {

const char* run_status_name(RunStatus status) {
  switch (status) {
    case RunStatus::kFinished: return "finished";
    case RunStatus::kQuiescent: return "quiescent";
    case RunStatus::kRoundBudgetExhausted: return "round-budget";
  }
  return "unknown";
}

void SimMetrics::add_work(const SimMetrics& later) {
  rounds += later.rounds;
  messages += later.messages;
  words += later.words;
  max_message_words = std::max(max_message_words, later.max_message_words);
  messages_per_round.insert(messages_per_round.end(),
                            later.messages_per_round.begin(),
                            later.messages_per_round.end());
  vertex_activations += later.vertex_activations;
}

double SimMetrics::avg_messages_per_round() const {
  if (rounds == 0) return 0.0;
  return static_cast<double>(messages) / static_cast<double>(rounds);
}

std::string SimMetrics::to_string() const {
  std::ostringstream out;
  out << "rounds=" << rounds << " messages=" << messages
      << " words=" << words << " max_message_words=" << max_message_words
      << " vertex_activations=" << vertex_activations
      << " status=" << run_status_name(status);
  if (faults.total() != 0) {
    out << " dropped=" << faults.dropped << " delayed=" << faults.delayed
        << " duplicated=" << faults.duplicated
        << " crashed=" << faults.crashed;
    if (faults.rejoined != 0) out << " rejoined=" << faults.rejoined;
  }
  return out.str();
}

}  // namespace dsnd

#include "trace.hpp"

#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::int64_t request)
    : tracer_(tracer), index_(tracer.spans_.size()) {
  Span span;
  span.name = std::move(name);
  span.request = request;
  span.parent = tracer.open_.empty()
                    ? -1
                    : static_cast<std::int64_t>(tracer.open_.back());
  span.begin_us = tracer.now_us();
  tracer.spans_.push_back(std::move(span));
  tracer.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].end_us = tracer_.now_us();
  tracer_.open_.pop_back();
}

std::vector<double> Tracer::total_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back((span.end_us - span.begin_us) / 1e3);
  }
  return out;
}

std::vector<double> Tracer::self_ms(const std::string& name) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_us[static_cast<std::size_t>(span.parent)] +=
          span.end_us - span.begin_us;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      out.push_back((spans_[i].end_us - spans_[i].begin_us - child_us[i]) /
                    1e3);
    }
  }
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out.setf(std::ios::fixed);
  out.precision(3);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << span.name
        << "\", \"cat\": \"" << span.name.substr(0, span.name.find('.'))
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << span.begin_us << ", \"dur\": " << (span.end_us - span.begin_us)
        << ", \"args\": {\"request\": " << span.request
        << ", \"span\": " << i << ", \"parent\": " << span.parent << "}}";
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

}  // namespace perfbench

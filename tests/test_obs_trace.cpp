// Trace-JSON well-formedness tests.
//
// The tracer's output must be loadable by chrome://tracing and Perfetto,
// which both consume the Trace Event Format: a top-level object with a
// "traceEvents" array of complete ("ph":"X") events. A minimal JSON parser
// lives in this file so well-formedness is checked structurally, not by
// substring matching.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/gridder.hpp"
#include "obs/obs.hpp"

namespace jigsaw {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser (objects, arrays, strings, numbers,
// booleans, null). Throws std::runtime_error on malformed input.

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  const JsonValue& at(const std::string& key) const {
    const auto it = obj.find(key);
    if (it == obj.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return obj.count(key) != 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (i_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON error at offset " + std::to_string(i_) +
                             ": " + why);
  }
  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  char peek() {
    skip_ws();
    if (i_ >= s_.size()) fail("unexpected end of input");
    return s_[i_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++i_;
  }
  bool consume(const std::string& word) {
    if (s_.compare(i_, word.size(), word) == 0) {
      i_ += word.size();
      return true;
    }
    return false;
  }

  JsonValue value() {
    const char c = peek();
    JsonValue v;
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      v.type = JsonValue::Type::String;
      v.str = string();
      return v;
    }
    if (consume("true")) {
      v.type = JsonValue::Type::Bool;
      v.boolean = true;
      return v;
    }
    if (consume("false")) {
      v.type = JsonValue::Type::Bool;
      return v;
    }
    if (consume("null")) return v;
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.type = JsonValue::Type::Object;
    expect('{');
    if (peek() == '}') {
      ++i_;
      return v;
    }
    while (true) {
      if (peek() != '"') fail("object key must be a string");
      std::string key = string();
      expect(':');
      v.obj.emplace(std::move(key), value());
      const char c = peek();
      ++i_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue array() {
    JsonValue v;
    v.type = JsonValue::Type::Array;
    expect('[');
    if (peek() == ']') {
      ++i_;
      return v;
    }
    while (true) {
      v.arr.push_back(value());
      const char c = peek();
      ++i_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (i_ >= s_.size()) fail("unterminated string");
      const char c = s_[i_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (i_ >= s_.size()) fail("dangling escape");
        const char e = s_[i_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            if (i_ + 4 > s_.size()) fail("truncated \\u escape");
            i_ += 4;  // decoded value irrelevant for these tests
            out += '?';
            break;
          default: fail("bad escape");
        }
      } else {
        out += c;
      }
    }
  }

  JsonValue number() {
    skip_ws();
    const std::size_t start = i_;
    if (i_ < s_.size() && (s_[i_] == '-' || s_[i_] == '+')) ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '-' || s_[i_] == '+')) {
      ++i_;
    }
    if (i_ == start) fail("expected a value");
    JsonValue v;
    v.type = JsonValue::Type::Number;
    v.number = std::stod(s_.substr(start, i_ - start));
    return v;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------

class ObsTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::kEnabled) GTEST_SKIP() << "built with JIGSAW_OBS=OFF";
    // One file per test process: ctest runs these tests concurrently.
    path_ = ::testing::TempDir() + "jigsaw_trace_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid()) + ".json";
  }
  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(ObsTrace, EmitsWellFormedChromeTraceJson) {
  obs::trace_start();
  {
    obs::Span outer("outer");
    { obs::Span inner("inner"); }
    { obs::Span inner2("inner2"); }
  }
  const std::size_t events = obs::trace_stop_write(path_);
  EXPECT_EQ(events, 3u);

  const JsonValue doc = JsonParser(slurp(path_)).parse();
  ASSERT_EQ(doc.type, JsonValue::Type::Object);
  ASSERT_TRUE(doc.has("traceEvents"));
  const JsonValue& ev = doc.at("traceEvents");
  ASSERT_EQ(ev.type, JsonValue::Type::Array);
  ASSERT_EQ(ev.arr.size(), 3u);
  for (const JsonValue& e : ev.arr) {
    ASSERT_EQ(e.type, JsonValue::Type::Object);
    EXPECT_EQ(e.at("ph").str, "X");
    EXPECT_EQ(e.at("cat").str, "jigsaw");
    EXPECT_EQ(e.at("pid").number, 1.0);
    EXPECT_GE(e.at("tid").number, 0.0);
    EXPECT_GE(e.at("ts").number, 0.0);
    EXPECT_GE(e.at("dur").number, 0.0);
    EXPECT_FALSE(e.at("name").str.empty());
  }
}

TEST_F(ObsTrace, NestedSpansAreContainedInTheirParent) {
  obs::trace_start();
  {
    obs::Span outer("outer");
    obs::Span inner("inner");
  }
  obs::trace_stop_write(path_);

  const JsonValue doc = JsonParser(slurp(path_)).parse();
  const JsonValue* outer = nullptr;
  const JsonValue* inner = nullptr;
  for (const JsonValue& e : doc.at("traceEvents").arr) {
    if (e.at("name").str == "outer") outer = &e;
    if (e.at("name").str == "inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Timestamps are written in microseconds to 3 decimals (ns precision);
  // allow one rounding ulp of slack.
  const double eps = 0.0015;
  const double o0 = outer->at("ts").number;
  const double o1 = o0 + outer->at("dur").number;
  const double i0 = inner->at("ts").number;
  const double i1 = i0 + inner->at("dur").number;
  EXPECT_GE(i0 + eps, o0);
  EXPECT_LE(i1, o1 + eps);
  EXPECT_EQ(outer->at("tid").number, inner->at("tid").number);
}

TEST_F(ObsTrace, ThreadsGetDistinctTrackIds) {
  obs::trace_start();
  { obs::Span main_span("main-thread"); }
  std::thread([] { obs::Span worker_span("worker-thread"); }).join();
  obs::trace_stop_write(path_);

  const JsonValue doc = JsonParser(slurp(path_)).parse();
  double main_tid = -1, worker_tid = -1;
  for (const JsonValue& e : doc.at("traceEvents").arr) {
    if (e.at("name").str == "main-thread") main_tid = e.at("tid").number;
    if (e.at("name").str == "worker-thread") worker_tid = e.at("tid").number;
  }
  ASSERT_GE(main_tid, 0.0);
  ASSERT_GE(worker_tid, 0.0);
  EXPECT_NE(main_tid, worker_tid);
}

TEST_F(ObsTrace, DisarmedTracerRecordsNothing) {
  { obs::Span before("before-start"); }  // never armed
  obs::trace_start();
  obs::trace_stop_write(path_);  // nothing in between
  { obs::Span after("after-stop"); }
  EXPECT_EQ(obs::trace_stop_write(path_), 0u);

  const JsonValue doc = JsonParser(slurp(path_)).parse();
  EXPECT_TRUE(doc.at("traceEvents").arr.empty());
}

TEST_F(ObsTrace, OverlongNamesAreTruncatedNotCorrupted) {
  obs::trace_start();
  const std::string long_name(200, 'x');
  { obs::Span s(long_name); }
  obs::trace_stop_write(path_);

  const JsonValue doc = JsonParser(slurp(path_)).parse();
  ASSERT_EQ(doc.at("traceEvents").arr.size(), 1u);
  const std::string& name = doc.at("traceEvents").arr[0].at("name").str;
  EXPECT_EQ(name, std::string(47, 'x'));
}

TEST_F(ObsTrace, GridderOperationsAppearAsSpans) {
  obs::trace_start();
  core::GridderOptions opt;
  opt.kind = core::GridderKind::SliceDice;
  opt.width = 4;
  opt.tile = 8;
  auto g = core::make_gridder<2>(16, opt);
  core::SampleSet<2> in;
  in.coords = {{0.1, -0.2}, {0.0, 0.25}};
  in.values = {c64(1, 0), c64(0, 1)};
  core::Grid<2> grid(g->grid_size());
  g->adjoint(in, grid);
  obs::trace_stop_write(path_);

  const JsonValue doc = JsonParser(slurp(path_)).parse();
  bool found = false;
  for (const JsonValue& e : doc.at("traceEvents").arr) {
    if (e.at("name").str == "grid.adjoint/slice-and-dice") found = true;
  }
  EXPECT_TRUE(found) << "instrumented gridder span missing from trace";
}

}  // namespace
}  // namespace jigsaw

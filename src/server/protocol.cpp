#include "server/protocol.hpp"

#include <optional>
#include <utility>

#include "obs/json.hpp"

namespace rct::server {
namespace {

// Typed request fields by wire key; set_field range-checks "fraction".
constexpr std::pair<std::string_view, std::string Request::*> kTextFields[] = {
    {"cmd", &Request::cmd}, {"design", &Request::design}, {"path", &Request::path},
    {"net", &Request::net}, {"trace", &Request::trace},   {"span", &Request::span}};
constexpr std::pair<std::string_view, bool Request::*> kFlagFields[] = {
    {"lenient", &Request::lenient}, {"leaves_only", &Request::leaves_only},
    {"with_exact", &Request::with_exact}};
constexpr std::pair<std::string_view, std::uint64_t Request::*> kCountFields[] = {
    {"id", &Request::id}, {"exact_limit", &Request::exact_limit},
    {"timeout_ms", &Request::timeout_ms}};

/// Stores `v` into the field named `key`; false when its type or range is
/// wrong.  Unknown keys are skipped (forward compatibility).
bool set_field(Request& req, std::string_view key, const json::Value& v) {
  using Kind = json::Value::Kind;
  for (const auto& [name, field] : kTextFields) {
    if (key != name) continue;
    req.*field = v.text;
    return v.kind == Kind::kString;
  }
  for (const auto& [name, field] : kFlagFields) {
    if (key != name) continue;
    req.*field = v.boolean;
    if (key == "with_exact") req.has_with_exact = true;
    return v.kind == Kind::kBool;
  }
  for (const auto& [name, field] : kCountFields) {
    if (key != name) continue;
    req.*field = v.as_u64().value_or(0);
    return v.as_u64().has_value();
  }
  if (key == "fraction") {
    req.fraction = v.number();
    return req.fraction > 0.0 && req.fraction < 1.0;  // false for NaN too
  }
  return true;
}

}  // namespace

ParsedRequest parse_request(std::string_view line) {
  ParsedRequest result;
  const std::optional<json::Value> doc = json::parse(line, &result.error);
  if (!doc) return result;
  using Kind = json::Value::Kind;
  if (doc->kind != Kind::kObject) {
    result.error = "request is not a JSON object";
    return result;
  }
  for (const json::Member& m : doc->members) {
    // null / nested containers read as "field absent" (forward compatibility).
    const Kind kind = m.value.kind;
    if (kind == Kind::kNull || kind == Kind::kArray || kind == Kind::kObject) continue;
    if (!set_field(result.request, m.key, m.value)) {
      result.error = "bad value for field \"" + m.key + "\"";
      return result;
    }
  }
  if (result.request.cmd.empty()) {
    result.error = "missing \"cmd\"";
    return result;
  }
  result.ok = true;
  return result;
}

std::string encode_request(const Request& request) {
  std::string out = "{\"id\":" + std::to_string(request.id) + ",\"cmd\":";
  json::append_string(out, request.cmd);
  const auto field = [&out](std::string_view key, std::string_view value) {
    out += ",\"";
    out += key;
    out += "\":";
    json::append_string(out, value);
  };
  if (!request.design.empty()) field("design", request.design);
  if (!request.path.empty()) field("path", request.path);
  if (!request.net.empty()) field("net", request.net);
  if (request.lenient) out += ",\"lenient\":true";
  if (request.leaves_only) out += ",\"leaves_only\":true";
  if (request.has_with_exact)
    out += request.with_exact ? ",\"with_exact\":true" : ",\"with_exact\":false";
  if (request.exact_limit != 0)
    out += ",\"exact_limit\":" + std::to_string(request.exact_limit);
  if (request.timeout_ms != 0)
    out += ",\"timeout_ms\":" + std::to_string(request.timeout_ms);
  if (request.fraction != 0.0) {
    out += ",\"fraction\":";
    json::append_number(out, request.fraction);
  }
  if (!request.trace.empty()) field("trace", request.trace);
  if (!request.span.empty()) field("span", request.span);
  out.push_back('}');
  return out;
}

std::string error_response(std::uint64_t id, std::string_view code, std::string_view message) {
  std::string out = "{\"id\":" + std::to_string(id) + ",\"ok\":false,\"code\":";
  json::append_string(out, code);
  out += ",\"error\":";
  json::append_string(out, message);
  out.push_back('}');
  return out;
}

std::string overloaded_response(std::uint64_t id, std::uint64_t retry_after_ms,
                                std::string_view message) {
  std::string out = error_response(id, "overloaded", message);
  out.pop_back();  // reopen the object to append the hint
  out += ",\"retry_after_ms\":" + std::to_string(retry_after_ms) + "}";
  return out;
}

bool response_ok(std::string_view response_line) {
  return response_line.find("\"ok\":true") != std::string_view::npos;
}

std::string response_error_code(std::string_view response_line) {
  if (response_ok(response_line)) return {};
  const std::string_view marker = "\"code\":\"";
  const std::size_t at = response_line.find(marker);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + marker.size();
  const std::size_t end = response_line.find('"', begin);
  if (end == std::string_view::npos) return {};
  return std::string(response_line.substr(begin, end - begin));
}

std::uint64_t response_retry_after_ms(std::string_view response_line) {
  const std::string_view marker = "\"retry_after_ms\":";
  const std::size_t at = response_line.find(marker);
  if (at == std::string_view::npos) return 0;
  std::size_t pos = at + marker.size();
  std::uint64_t value = 0;
  while (pos < response_line.size() && response_line[pos] >= '0' && response_line[pos] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(response_line[pos] - '0');
    ++pos;
  }
  return value;
}

}  // namespace rct::server

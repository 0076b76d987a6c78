// Workload generation, the answer oracle, the input files, and the
// serving set-up shared by the timed and the traced runs.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>

#include "bench.h"
#include "common/alloc_tracker.h"
#include "common/build_info.h"
#include "common/rng.h"
#include "dtd/instance_normalizer.h"
#include "dtd/normalizer.h"
#include "security/annotator.h"
#include "security/derive.h"
#include "security/materializer.h"
#include "security/spec_parser.h"
#include "workload/adex.h"
#include "workload/auction.h"
#include "workload/generator.h"
#include "workload/hospital.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace secview::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

template <typename T>
void Shuffle(std::vector<T>& items, Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Below(i)]);
  }
}

/// Appends `blocks` shuffled copies of `block` to `out`: every request
/// kind appears equally often in every window of block.size() requests,
/// so the latency mix — and with it p50 — does not drift with the seed.
void AppendBlocks(const std::vector<Request>& block, int blocks, Rng& rng,
                  std::vector<Request>& out) {
  for (int b = 0; b < blocks; ++b) {
    std::vector<Request> copy = block;
    Shuffle(copy, rng);
    out.insert(out.end(), copy.begin(), copy.end());
  }
}

// -- Hospital: the paper's running example ----------------------------------

/// The five view queries of the repository's serving benchmarks
/// (ROADMAP): nurse-view paths whose cost is dominated by re-deciding the
/// nurse's dept qualifier.
constexpr const char* kHospitalQueries[] = {
    "//patient//bill",
    "//patient/name",
    "//patient[wardNo = \"3\"]",
    "//bill | //medication",
    "dept/patientInfo/patient/name",
};

Status FillHospital(uint64_t seed, Inputs& in, Dtd& dtd, XmlTree& doc) {
  dtd = MakeHospitalDtd();
  SECVIEW_ASSIGN_OR_RETURN(AccessSpec nurse, MakeNurseSpec(dtd));
  in.policies.push_back({"nurse", nurse.ToString()});
  // 1 MB rather than 4 MB: evaluation over a 4 MB document is bound by
  // DRAM latency (10x slower per request for 4x the size), which made its
  // run-to-run spread twice that of this size on a shared host.
  SECVIEW_ASSIGN_OR_RETURN(
      doc, GenerateDocument(dtd, HospitalGeneratorOptions(seed, 1'000'000)));
  for (const char* q : kHospitalQueries) in.queries.push_back(q);
  for (int ward = 1; ward <= 8; ++ward) {
    in.bindings.push_back({{"wardNo", std::to_string(ward)}});
  }
  std::vector<Request> block;
  for (int q = 0; q < static_cast<int>(in.queries.size()); ++q) {
    for (int b = 0; b < static_cast<int>(in.bindings.size()); ++b) {
      block.push_back({0, q, b});
    }
  }
  Rng rng(seed ^ 0x5eedULL);
  AppendBlocks(block, 1, rng, in.warmup);
  AppendBlocks(block, 150, rng, in.stream);
  in.clients = 1;
  in.traced_requests = 10 * static_cast<int>(block.size());
  return Status::OK();
}

// -- Adex: ad-hoc queries, each new to the rewrite cache --------------------

/// Distinct ad-hoc query texts in the adex pool, a quarter per shape.
/// Each request costs two rewrite-cache entries (plain and optimized), so
/// the pool fills the 1024-entry cache 8 times over: a text comes round
/// again only after 4095 others, long after the cache evicted it.
constexpr size_t kAdexPool = 4096;

/// Builds Table 1's four query shapes over the view DTD's labels — the
/// buyer-info and real-estate subtrees the Adex policy exposes — with
/// value qualifiers drawn from the document so the texts are distinct
/// and mostly non-empty:
///   Q1  //A[C = "v"]/B
///   Q2  //A[C = "v"]/B | //A2/B2
///   Q3  //A[B and C = "v"]
///   Q4  //G[A/C = "v" and A/B]
std::vector<std::string> AdexQueryPool(const Dtd& dtd, const XmlTree& doc,
                                       Rng& rng) {
  // Element types of the exposed subtrees and their element/text children.
  std::set<std::string> exposed;
  std::vector<std::string> frontier = {"buyer-info", "real-estate"};
  while (!frontier.empty()) {
    std::string name = frontier.back();
    frontier.pop_back();
    if (!exposed.insert(name).second) continue;
    for (const std::string& child : dtd.Content(dtd.FindType(name)).types()) {
      frontier.push_back(child);
    }
  }
  auto is_text = [&](const std::string& name) {
    return dtd.Content(dtd.FindType(name)).kind() == ContentKind::kText;
  };
  std::vector<std::pair<std::string, std::string>> edges;  // A -> B
  std::map<std::string, std::vector<std::string>> children;
  std::map<std::string, std::string> parent_of;
  for (const std::string& a : exposed) {
    if (is_text(a)) continue;
    for (const std::string& b : dtd.Content(dtd.FindType(a)).types()) {
      edges.push_back({a, b});
      children[a].push_back(b);
      parent_of[b] = a;
    }
  }
  // (A, C, v): text value v of a C child of an A node in the document.
  struct Valued {
    std::string a, c, v;
  };
  std::vector<Valued> values;
  for (NodeId n = 0; n < static_cast<NodeId>(doc.node_count()); ++n) {
    if (!doc.IsElement(n) || doc.parent(n) == kNullNode) continue;
    std::string c(doc.label(n));
    std::string a(doc.label(doc.parent(n)));
    if (!exposed.count(a) || !is_text(c)) continue;
    std::string v = doc.CollectText(n);
    if (v.empty() || v.find('"') != std::string::npos) continue;
    values.push_back({a, c, v});
  }
  std::vector<std::string> pool;
  if (values.empty() || edges.empty()) return pool;
  std::set<std::string> seen;
  auto pick_sibling = [&](const Valued& x) -> std::string {
    const std::vector<std::string>& kids = children[x.a];
    std::string b = kids[rng.Below(kids.size())];
    return b == x.c ? std::string() : b;
  };
  const size_t per_shape = kAdexPool / 4;
  for (int shape = 0; shape < 4; ++shape) {
    size_t made = 0;
    for (size_t attempt = 0; made < per_shape && attempt < 64 * per_shape;
         ++attempt) {
      const Valued& x = values[rng.Below(values.size())];
      std::string b = pick_sibling(x);
      if (b.empty()) continue;
      std::string qual = x.c + " = \"" + x.v + "\"";
      std::string text;
      switch (shape) {
        case 0:
          text = "//" + x.a + "[" + qual + "]/" + b;
          break;
        case 1: {
          const auto& [a2, b2] = edges[rng.Below(edges.size())];
          text = "//" + x.a + "[" + qual + "]/" + b + " | //" + a2 + "/" + b2;
          break;
        }
        case 2:
          text = "//" + x.a + "[" + b + " and " + qual + "]";
          break;
        case 3: {
          auto up = parent_of.find(x.a);
          if (up == parent_of.end()) continue;
          text = "//" + up->second + "[" + x.a + "/" + x.c + " = \"" + x.v +
                 "\" and " + x.a + "/" + b + "]";
          break;
        }
      }
      if (seen.insert(text).second) {
        pool.push_back(text);
        ++made;
      }
    }
    if (made < per_shape) return {};  // the document is too small
  }
  Shuffle(pool, rng);
  return pool;
}

Status FillAdex(uint64_t seed, Inputs& in, Dtd& dtd, XmlTree& doc) {
  dtd = MakeAdexDtd();
  SECVIEW_ASSIGN_OR_RETURN(AccessSpec adex, MakeAdexSpec(dtd));
  in.policies.push_back({"adex", adex.ToString()});
  SECVIEW_ASSIGN_OR_RETURN(
      doc, GenerateDocument(dtd, AdexGeneratorOptions(seed, 200'000, 4)));
  Rng rng(seed ^ 0xadeULL);
  in.queries = AdexQueryPool(dtd, doc, rng);
  if (in.queries.size() != kAdexPool) {
    return Status::Internal("adex document too small for the query pool");
  }
  in.bindings.push_back({});
  const int n = static_cast<int>(in.queries.size());
  // The warm-up fills the cache with the pool's tail, so the timed
  // stream starts at steady-state eviction on texts the cache never saw.
  for (int q = n - 1024; q < n; ++q) in.warmup.push_back({0, q, 0});
  for (int q = 0; q < n; ++q) in.stream.push_back({0, q, 0});
  in.clients = 1;
  in.traced_requests = 2048;
  return Status::OK();
}

// -- Auction: recursive view, two policies, two concurrent clients ---------

/// Queries over the auctions, each answered in microseconds. The document
/// is mostly people (the generator grows the top-most star), so a
/// //person/... query returns thousands of nodes and costs milliseconds —
/// a second latency class, left out so p99 does not sit on it. One query
/// per policy has a qualifier, so predicates are decided here too.
constexpr const char* kBidderQueries[] = {
    "//open_auction/initial",
    "//bid/amount",
    "//bid[amount]/bid-time",
    "//listitem/description",
};
constexpr const char* kAuditorQueries[] = {
    "//closed_auction/price",
    "//bid/amount",
    "//open_auction[initial]/seller",
    "//parlist/listitem",
};

Status FillAuction(uint64_t seed, Inputs& in, Dtd& dtd, XmlTree& doc) {
  dtd = MakeAuctionDtd();
  SECVIEW_ASSIGN_OR_RETURN(AccessSpec bidder, MakeBidderSpec(dtd));
  SECVIEW_ASSIGN_OR_RETURN(AccessSpec auditor, MakeAuditorSpec(dtd));
  in.policies.push_back({"bidder", bidder.ToString()});
  in.policies.push_back({"auditor", auditor.ToString()});
  SECVIEW_ASSIGN_OR_RETURN(
      doc, GenerateDocument(dtd, AuctionGeneratorOptions(seed, 2'000'000)));
  for (const char* q : kBidderQueries) in.queries.push_back(q);
  const int auditor_base = static_cast<int>(in.queries.size());
  for (const char* q : kAuditorQueries) in.queries.push_back(q);
  in.bindings.push_back({});
  // Blocks alternate the two policies request by request.
  Rng rng(seed ^ 0xa0c7ULL);
  auto append = [&](int blocks, std::vector<Request>& out) {
    for (int b = 0; b < blocks; ++b) {
      std::vector<int> bid = {0, 1, 2, 3};
      std::vector<int> aud = {0, 1, 2, 3};
      Shuffle(bid, rng);
      Shuffle(aud, rng);
      for (int i = 0; i < 4; ++i) {
        out.push_back({0, bid[i], 0});
        out.push_back({1, auditor_base + aud[i], 0});
      }
    }
  };
  append(4, in.warmup);
  append(1000, in.stream);
  in.clients = 2;
  in.pool_workers = 2;
  in.traced_requests = 1024;
  return Status::OK();
}

/// The expected answers: for every distinct (policy, query, binding) of
/// the warm-up and the stream, the origins of p(MaterializeView(T)) over
/// the document parsed back from its text (so node ids match what the
/// served engine sees). Each expected node must be accessible under the
/// bound specification.
Status ComputeOracle(Inputs& in) {
  SECVIEW_ASSIGN_OR_RETURN(NormalizeResult normalized,
                           ParseAndNormalizeDtd(in.dtd_text));
  SECVIEW_ASSIGN_OR_RETURN(XmlTree doc, ParseXml(in.xml_text));
  std::set<std::tuple<int, int, int>> keys;
  for (const auto* list : {&in.warmup, &in.stream}) {
    for (const Request& r : *list) keys.insert({r.policy, r.query, r.binding});
  }
  std::vector<PathPtr> parsed(in.queries.size());
  for (size_t q = 0; q < in.queries.size(); ++q) {
    SECVIEW_ASSIGN_OR_RETURN(parsed[q], ParseXPath(in.queries[q]));
  }
  for (int p = 0; p < static_cast<int>(in.policies.size()); ++p) {
    SECVIEW_ASSIGN_OR_RETURN(
        AccessSpec spec,
        ParseAccessSpec(normalized.dtd, in.policies[p].second));
    SECVIEW_ASSIGN_OR_RETURN(SecurityView view, DeriveSecurityView(spec));
    for (int b = 0; b < static_cast<int>(in.bindings.size()); ++b) {
      AccessSpec bound = spec.Bind(in.bindings[b]);
      std::optional<XmlTree> tv;
      std::optional<AccessibilityLabeling> labels;
      for (auto it = keys.lower_bound({p, 0, 0});
           it != keys.end() && std::get<0>(*it) == p; ++it) {
        if (std::get<2>(*it) != b) continue;
        if (!tv) {
          MaterializeOptions options;
          options.bindings = in.bindings[b];
          SECVIEW_ASSIGN_OR_RETURN(tv,
                                   MaterializeView(doc, view, bound, options));
          SECVIEW_ASSIGN_OR_RETURN(labels, ComputeAccessibility(doc, bound));
        }
        SECVIEW_ASSIGN_OR_RETURN(NodeSet on_view,
                                 EvaluateAtRoot(*tv, parsed[std::get<1>(*it)]));
        std::vector<NodeId> origins;
        for (NodeId n : on_view) origins.push_back(tv->origin(n));
        std::sort(origins.begin(), origins.end());
        origins.erase(std::unique(origins.begin(), origins.end()),
                      origins.end());
        for (NodeId n : origins) {
          if (n == kNullNode || !labels->accessible[n]) {
            return Status::Internal("oracle answer of '" +
                                    in.queries[std::get<1>(*it)] +
                                    "' holds an inaccessible node");
          }
        }
        in.expected[*it] = Digest(origins);
      }
    }
  }
  return Status::OK();
}

std::string BindingsText(const Bindings& bindings) {
  if (bindings.empty()) return "-";
  std::string out;
  for (const auto& [k, v] : bindings) {
    if (!out.empty()) out += ",";
    out += k + "=" + v;
  }
  return out;
}

Result<Bindings> ParseBindingsText(const std::string& text) {
  Bindings out;
  if (text == "-") return out;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    size_t eq = item.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("bad binding '" + item + "'");
    }
    out.push_back({item.substr(0, eq), item.substr(eq + 1)});
  }
  return out;
}

Status WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  if (!out) return Status::Internal("cannot write " + path);
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

AnswerDigest Digest(const std::vector<NodeId>& nodes) {
  AnswerDigest d;
  d.count = nodes.size();
  d.hash = 1469598103934665603ULL;
  for (NodeId n : nodes) {
    d.hash = (d.hash ^ static_cast<uint64_t>(n)) * 1099511628211ULL;
  }
  return d;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "hospital-wards", "adex-adhoc", "auction-concurrent"};
  return names;
}

Result<Inputs> GenerateInputs(const std::string& workload, uint64_t seed) {
  Inputs in;
  in.workload = workload;
  in.seed = seed;
  Dtd dtd;
  XmlTree doc;
  if (workload == "hospital-wards") {
    SECVIEW_RETURN_IF_ERROR(FillHospital(seed, in, dtd, doc));
  } else if (workload == "adex-adhoc") {
    SECVIEW_RETURN_IF_ERROR(FillAdex(seed, in, dtd, doc));
  } else if (workload == "auction-concurrent") {
    SECVIEW_RETURN_IF_ERROR(FillAuction(seed, in, dtd, doc));
  } else {
    return Status::InvalidArgument("unknown workload '" + workload + "'");
  }
  in.dtd_text = dtd.ToString();
  in.xml_text = ToXmlString(doc);
  // The program receives texts; make sure they say what the fixtures
  // built before any number depends on them.
  SECVIEW_ASSIGN_OR_RETURN(NormalizeResult parsed,
                           ParseAndNormalizeDtd(in.dtd_text));
  if (parsed.dtd.ToString() != in.dtd_text || !parsed.aux_types.empty()) {
    return Status::Internal("DTD text does not round-trip");
  }
  for (const auto& [name, text] : in.policies) {
    SECVIEW_ASSIGN_OR_RETURN(AccessSpec spec,
                             ParseAccessSpec(parsed.dtd, text));
    if (spec.ToString() != text) {
      return Status::Internal("policy '" + name + "' does not round-trip");
    }
  }
  SECVIEW_RETURN_IF_ERROR(ComputeOracle(in));
  return in;
}

Status WriteInputs(const Inputs& in, const std::string& dir) {
  std::ostringstream m;
  m << "workload " << in.workload << "\n"
    << "seed " << in.seed << "\n"
    << "clients " << in.clients << "\n"
    << "pool_workers " << in.pool_workers << "\n"
    << "traced " << in.traced_requests << "\n";
  for (size_t p = 0; p < in.policies.size(); ++p) {
    m << "policy " << in.policies[p].first << "\n";
    SECVIEW_RETURN_IF_ERROR(WriteFile(dir + "/policy" + std::to_string(p) +
                                          ".spec",
                                      in.policies[p].second));
  }
  for (const Bindings& b : in.bindings) {
    m << "binding " << BindingsText(b) << "\n";
  }
  for (const std::string& q : in.queries) m << "query " << q << "\n";
  for (const auto& [key, digest] : in.expected) {
    m << "expect " << std::get<0>(key) << " " << std::get<1>(key) << " "
      << std::get<2>(key) << " " << digest.count << " " << digest.hash << "\n";
  }
  for (const Request& r : in.warmup) {
    m << "warmup " << r.policy << " " << r.query << " " << r.binding << "\n";
  }
  for (const Request& r : in.stream) {
    m << "stream " << r.policy << " " << r.query << " " << r.binding << "\n";
  }
  SECVIEW_RETURN_IF_ERROR(WriteFile(dir + "/doc.dtd", in.dtd_text));
  SECVIEW_RETURN_IF_ERROR(WriteFile(dir + "/doc.xml", in.xml_text));
  return WriteFile(dir + "/manifest.txt", m.str());
}

Result<Inputs> ReadInputs(const std::string& dir) {
  Inputs in;
  SECVIEW_ASSIGN_OR_RETURN(std::string manifest,
                           ReadFile(dir + "/manifest.txt"));
  SECVIEW_ASSIGN_OR_RETURN(in.dtd_text, ReadFile(dir + "/doc.dtd"));
  SECVIEW_ASSIGN_OR_RETURN(in.xml_text, ReadFile(dir + "/doc.xml"));
  std::istringstream lines(manifest);
  std::string line;
  while (std::getline(lines, line)) {
    size_t space = line.find(' ');
    std::string tag = line.substr(0, space);
    std::string rest = space == std::string::npos ? "" : line.substr(space + 1);
    std::istringstream fields(rest);
    if (tag == "workload") {
      in.workload = rest;
    } else if (tag == "seed") {
      fields >> in.seed;
    } else if (tag == "clients") {
      fields >> in.clients;
    } else if (tag == "pool_workers") {
      fields >> in.pool_workers;
    } else if (tag == "traced") {
      fields >> in.traced_requests;
    } else if (tag == "policy") {
      SECVIEW_ASSIGN_OR_RETURN(
          std::string spec,
          ReadFile(dir + "/policy" + std::to_string(in.policies.size()) +
                   ".spec"));
      in.policies.push_back({rest, std::move(spec)});
    } else if (tag == "binding") {
      SECVIEW_ASSIGN_OR_RETURN(Bindings b, ParseBindingsText(rest));
      in.bindings.push_back(std::move(b));
    } else if (tag == "query") {
      in.queries.push_back(rest);
    } else if (tag == "expect") {
      int p = 0, q = 0, b = 0;
      AnswerDigest d;
      fields >> p >> q >> b >> d.count >> d.hash;
      in.expected[{p, q, b}] = d;
    } else if (tag == "warmup" || tag == "stream") {
      Request r;
      fields >> r.policy >> r.query >> r.binding;
      (tag == "warmup" ? in.warmup : in.stream).push_back(r);
    } else if (!tag.empty()) {
      return Status::InvalidArgument("manifest: unknown line '" + line + "'");
    }
    if (fields.fail() && tag != "workload" && tag != "policy" &&
        tag != "binding" && tag != "query") {
      return Status::InvalidArgument("manifest: bad line '" + line + "'");
    }
  }
  auto valid = [&](const Request& r) {
    return r.policy >= 0 && r.policy < static_cast<int>(in.policies.size()) &&
           r.query >= 0 && r.query < static_cast<int>(in.queries.size()) &&
           r.binding >= 0 && r.binding < static_cast<int>(in.bindings.size()) &&
           in.expected.count({r.policy, r.query, r.binding});
  };
  if (in.stream.empty() || in.clients < 1 || in.pool_workers < 0 ||
      in.traced_requests < 1 ||
      !std::all_of(in.stream.begin(), in.stream.end(), valid) ||
      !std::all_of(in.warmup.begin(), in.warmup.end(), valid)) {
    return Status::InvalidArgument("manifest in " + dir + " is inconsistent");
  }
  return in;
}

Result<std::unique_ptr<Server>> SetUp(const Inputs& in, SetupTimes* times,
                                      obs::Trace* trace) {
  SetupTimes local;
  if (times == nullptr) times = &local;
  const auto start = Clock::now();
  auto server = std::make_unique<Server>();
  auto step = Clock::now();
  std::optional<InstanceNormalizer> instance;
  {
    obs::ScopedSpan span(trace, "dtd.parse");
    SECVIEW_ASSIGN_OR_RETURN(NormalizeResult normalized,
                             ParseAndNormalizeDtd(in.dtd_text));
    instance.emplace(InstanceNormalizer::For(normalized));
    SECVIEW_ASSIGN_OR_RETURN(
        server->engine, SecureQueryEngine::Create(std::move(normalized.dtd)));
  }
  times->dtd_parse_s = SecondsSince(step);

  step = Clock::now();
  {
    obs::ScopedSpan span(trace, "xml.parse");
    SECVIEW_ASSIGN_OR_RETURN(server->doc, ParseXml(in.xml_text));
    if (!instance->IsIdentity()) {
      SECVIEW_ASSIGN_OR_RETURN(server->doc, instance->Normalize(server->doc));
    }
    span.SetAttr("nodes", static_cast<uint64_t>(server->doc.node_count()));
  }
  times->xml_parse_s = SecondsSince(step);

  step = Clock::now();
  for (const auto& [name, text] : in.policies) {
    obs::ScopedSpan span(trace, "security.register");
    span.SetAttr("policy", name);
    SECVIEW_RETURN_IF_ERROR(server->engine->RegisterPolicy(name, text));
  }
  times->register_s = SecondsSince(step);

  SecureQueryEngine& engine = *server->engine;
  engine.AttachServingObservers(&server->window, &server->slow_log);
  engine.AttachPolicyStats(&server->policy_stats);
  engine.AttachTraceStore(&server->traces);
  engine.AttachHealth(&server->health);
  engine.Seal();
  times->total_s = SecondsSince(start);
  return server;
}

Result<Accessibility> ComputeAccessibilities(const Inputs& in,
                                             const Server& server) {
  Accessibility out;
  for (int p = 0; p < static_cast<int>(in.policies.size()); ++p) {
    SECVIEW_ASSIGN_OR_RETURN(
        AccessSpec spec,
        ParseAccessSpec(server.engine->dtd(), in.policies[p].second));
    for (int b = 0; b < static_cast<int>(in.bindings.size()); ++b) {
      SECVIEW_ASSIGN_OR_RETURN(
          AccessibilityLabeling labels,
          ComputeAccessibility(server.doc, spec.Bind(in.bindings[b])));
      out[{p, b}] = std::move(labels.accessible);
    }
  }
  return out;
}

std::string CheckAnswer(const Inputs& in, const Accessibility& access,
                        const Request& r, const NodeSet& nodes) {
  auto expected = in.expected.find({r.policy, r.query, r.binding});
  if (expected == in.expected.end()) return "no expected answer";
  if (!(Digest(nodes) == expected->second)) {
    return "answer of '" + in.queries[r.query] + "' has " +
           std::to_string(nodes.size()) + " nodes, expected " +
           std::to_string(expected->second.count) + " (or digest differs)";
  }
  const std::vector<bool>& accessible = access.at({r.policy, r.binding});
  for (NodeId n : nodes) {
    if (n < 0 || static_cast<size_t>(n) >= accessible.size() ||
        !accessible[n]) {
      return "answer of '" + in.queries[r.query] + "' leaks node " +
             std::to_string(n);
    }
  }
  return "";
}

std::string HostBlock() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  const BuildInfo& build = GetBuildInfo();
  std::ostringstream out;
  out << "# host: nproc=" << std::thread::hardware_concurrency() << " cpu=\""
      << cpu << "\" build=" << build.build_type
      << " sanitizer=" << build.sanitizer << " alloc_tracker="
      << (AllocTrackingAvailable() ? "on" : "off")
      << " compiler=\"" << build.compiler << "\"";
  return out.str();
}

std::string RefuseReason() {
  const BuildInfo& build = GetBuildInfo();
  if (build.build_type != "release") {
    return "build type is '" + build.build_type + "', not release";
  }
  if (build.sanitizer != "none") {
    return "sanitizer '" + build.sanitizer + "' is compiled in";
  }
  return "";
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

CpuTimes ReadCpuTimes() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTimes times;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8; ++field) {
    uint64_t ticks = 0;
    if (!(stat >> ticks)) break;
    times.total += ticks;
    if (field == 3 || field == 4) times.idle += ticks;
    if (field == 7) times.steal = ticks;
  }
  return times;
}

std::string Fmt(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

double Percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(p * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

}  // namespace secview::perfbench

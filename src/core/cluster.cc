#include "core/cluster.h"

#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "common/check.h"
#include "common/logging.h"
#include "common/telemetry.h"
#include "net/tcp_transport.h"

extern char** environ;

namespace deta::core {

std::vector<std::string> ClusterSpec::PartyNames() const {
  std::vector<std::string> names;
  for (int i = 0; i < parties; ++i) {
    names.push_back("party" + std::to_string(i));
  }
  return names;
}

std::vector<std::string> ClusterSpec::AggregatorNames() const {
  std::vector<std::string> names;
  for (int j = 0; j < aggregators; ++j) {
    names.push_back("aggregator" + std::to_string(j));
  }
  return names;
}

std::vector<std::string> ClusterSpec::ChildRoles() const {
  std::vector<std::string> roles = AggregatorNames();
  for (const std::string& p : PartyNames()) {
    roles.push_back(p);
  }
  roles.push_back(KeyBroker::kEndpointName);
  return roles;
}

std::vector<std::string> ClusterSpec::ToArgs() const {
  auto arg = [](const std::string& key, const std::string& value) {
    return "--" + key + "=" + value;
  };
  std::vector<std::string> args;
  args.push_back(arg("parties", std::to_string(parties)));
  args.push_back(arg("aggregators", std::to_string(aggregators)));
  args.push_back(arg("rounds", std::to_string(rounds)));
  args.push_back(arg("seed", std::to_string(seed)));
  args.push_back(arg("algorithm", algorithm));
  args.push_back(arg("paillier", use_paillier ? "1" : "0"));
  args.push_back(arg("examples-per-party", std::to_string(examples_per_party)));
  args.push_back(arg("eval-examples", std::to_string(eval_examples)));
  args.push_back(arg("image-size", std::to_string(image_size)));
  args.push_back(arg("batch", std::to_string(batch_size)));
  args.push_back(arg("local-epochs", std::to_string(local_epochs)));
  args.push_back(arg("lr", std::to_string(lr)));
  args.push_back(arg("threads", std::to_string(threads)));
  args.push_back(arg("round-timeout-ms", std::to_string(round_timeout_ms)));
  args.push_back(arg("setup-timeout-ms", std::to_string(setup_timeout_ms)));
  args.push_back(arg("retry-attempts", std::to_string(retry_attempts)));
  args.push_back(arg("retry-initial-timeout-ms", std::to_string(retry_initial_timeout_ms)));
  args.push_back(arg("retry-max-timeout-ms", std::to_string(retry_max_timeout_ms)));
  args.push_back(arg("listen-host", listen_host));
  args.push_back(arg("registry-port", std::to_string(registry_port)));
  args.push_back(arg("telemetry-dir", telemetry_dir));
  args.push_back(arg("drop", std::to_string(drop_probability)));
  args.push_back(arg("fault-seed", std::to_string(fault_seed)));
  return args;
}

std::string FlagOr(const Flags& flags, const std::string& key,
                   const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

int FlagInt(const Flags& flags, const std::string& key, int fallback) {
  return flags.count(key) != 0 ? std::atoi(flags.at(key).c_str()) : fallback;
}

double FlagDouble(const Flags& flags, const std::string& key, double fallback) {
  return flags.count(key) != 0 ? std::atof(flags.at(key).c_str()) : fallback;
}

ClusterSpec ClusterSpec::FromFlags(const std::map<std::string, std::string>& flags) {
  ClusterSpec spec;
  spec.parties = FlagInt(flags, "parties", spec.parties);
  spec.aggregators = FlagInt(flags, "aggregators", spec.aggregators);
  spec.rounds = FlagInt(flags, "rounds", spec.rounds);
  spec.seed = static_cast<uint64_t>(std::strtoull(
      FlagOr(flags, "seed", std::to_string(spec.seed)).c_str(), nullptr, 10));
  spec.algorithm = FlagOr(flags, "algorithm", spec.algorithm);
  spec.use_paillier = FlagInt(flags, "paillier", spec.use_paillier ? 1 : 0) != 0;
  spec.examples_per_party = FlagInt(flags, "examples-per-party", spec.examples_per_party);
  spec.eval_examples = FlagInt(flags, "eval-examples", spec.eval_examples);
  spec.image_size = FlagInt(flags, "image-size", spec.image_size);
  spec.batch_size = FlagInt(flags, "batch", spec.batch_size);
  spec.local_epochs = FlagInt(flags, "local-epochs", spec.local_epochs);
  spec.lr = FlagDouble(flags, "lr", spec.lr);
  spec.threads = FlagInt(flags, "threads", spec.threads);
  spec.round_timeout_ms = FlagInt(flags, "round-timeout-ms", spec.round_timeout_ms);
  spec.setup_timeout_ms = FlagInt(flags, "setup-timeout-ms", spec.setup_timeout_ms);
  spec.retry_attempts = FlagInt(flags, "retry-attempts", spec.retry_attempts);
  spec.retry_initial_timeout_ms =
      FlagInt(flags, "retry-initial-timeout-ms", spec.retry_initial_timeout_ms);
  spec.retry_max_timeout_ms =
      FlagInt(flags, "retry-max-timeout-ms", spec.retry_max_timeout_ms);
  spec.listen_host = FlagOr(flags, "listen-host", spec.listen_host);
  spec.registry_port = FlagInt(flags, "registry-port", spec.registry_port);
  spec.telemetry_dir = FlagOr(flags, "telemetry-dir", spec.telemetry_dir);
  spec.drop_probability = FlagDouble(flags, "drop", spec.drop_probability);
  spec.fault_seed = static_cast<uint64_t>(std::strtoull(
      FlagOr(flags, "fault-seed", std::to_string(spec.fault_seed)).c_str(), nullptr, 10));
  return spec;
}

namespace {

std::string Trim(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) {
    return "";
  }
  size_t end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

bool ParseTomlFile(const std::string& path, std::map<std::string, std::string>* out,
                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip comments, respecting quoted strings ("#" inside quotes is data).
    bool in_quote = false;
    for (size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '"') {
        in_quote = !in_quote;
      } else if (line[i] == '#' && !in_quote) {
        line = line.substr(0, i);
        break;
      }
    }
    line = Trim(line);
    if (line.empty()) {
      continue;
    }
    if (line[0] == '[') {
      if (error != nullptr) {
        *error = path + ":" + std::to_string(lineno) +
                 ": section headers are not supported (flat key = value only)";
      }
      return false;
    }
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      if (error != nullptr) {
        *error = path + ":" + std::to_string(lineno) + ": expected `key = value`";
      }
      return false;
    }
    std::string key = Trim(line.substr(0, eq));
    std::string value = Trim(line.substr(eq + 1));
    if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
      value = value.substr(1, value.size() - 2);
    } else if (value == "true") {
      value = "1";
    } else if (value == "false") {
      value = "0";
    }
    if (key.empty()) {
      if (error != nullptr) {
        *error = path + ":" + std::to_string(lineno) + ": empty key";
      }
      return false;
    }
    out->emplace(key, value);  // existing keys (command-line flags) win
  }
  return true;
}

Flags ParseFlags(int argc, const char* const* argv, std::set<std::string> keys) {
  std::map<std::string, std::string> flags;
  std::vector<std::string> errors;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      errors.push_back("unrecognized argument: " + arg);
      continue;
    }
    const size_t eq = arg.find('=');
    std::string value = eq == std::string::npos ? std::string("1") : arg.substr(eq + 1);
    flags.insert_or_assign(arg.substr(2, eq == std::string::npos ? eq : eq - 2),
                           std::move(value));
  }
  auto config = flags.find("config");
  std::string error;
  if (keys.count("config") != 0 && config != flags.end() &&
      !ParseTomlFile(config->second, &flags, &error)) {
    errors.push_back("config error: " + error);
  }
  for (const auto& [key, value] : flags) {
    if (keys.count(key) == 0) {
      errors.push_back("unknown flag --" + key);
    }
  }
  if (!errors.empty()) {
    for (const std::string& e : errors) {
      std::fprintf(stderr, "%s: %s\n", argc > 0 ? argv[0] : "deta", e.c_str());
    }
    std::exit(2);
  }
  return flags;
}

std::map<std::string, std::string> ParseClusterFlags(
    int argc, const char* const* argv, const std::vector<std::string>& program_keys) {
  std::set<std::string> keys = {"config", "role", "registry", "verbose"};
  keys.insert(program_keys.begin(), program_keys.end());
  for (const std::string& arg : ClusterSpec().ToArgs()) {
    keys.insert(arg.substr(2, arg.find('=') - 2));
  }
  return ParseFlags(argc, argv, std::move(keys));
}

// --- job derivation ---

namespace {

fl::TrainConfig ClusterTrainConfig(const ClusterSpec& spec) {
  fl::TrainConfig train;
  train.batch_size = spec.batch_size;
  train.local_epochs = spec.local_epochs;
  train.lr = static_cast<float>(spec.lr);
  return train;
}

data::Dataset ClusterSynth(const ClusterSpec& spec, int examples, uint64_t seed) {
  data::SyntheticConfig config;
  config.num_examples = examples;
  config.classes = 10;
  config.channels = 1;
  config.image_size = spec.image_size;
  config.style = data::ImageStyle::kBlobs;
  config.seed = seed;
  config.prototype_seed = 777;
  return data::GenerateSynthetic(config);
}

}  // namespace

fl::ExecutionOptions BuildExecutionOptions(const ClusterSpec& spec) {
  fl::ExecutionOptions options;
  options.rounds = spec.rounds;
  options.train = ClusterTrainConfig(spec);
  options.algorithm = spec.algorithm;
  options.use_paillier = spec.use_paillier;
  options.seed = spec.seed;
  options.threads = spec.threads;
  options.round_timeout_ms = spec.round_timeout_ms;
  options.setup_timeout_ms = spec.setup_timeout_ms;
  options.retry.max_attempts = spec.retry_attempts;
  options.retry.initial_timeout_ms = spec.retry_initial_timeout_ms;
  options.retry.max_timeout_ms = spec.retry_max_timeout_ms;
  if (spec.drop_probability > 0.0) {
    options.fault_plan.seed = spec.fault_seed;
    options.fault_plan.default_rates.drop = spec.drop_probability;
  }
  return options;
}

DetaOptions BuildDetaOptions(const ClusterSpec& spec) {
  DetaOptions deta;
  deta.num_aggregators = spec.aggregators;
  return deta;
}

fl::ModelFactory ClusterModelFactory(const ClusterSpec& spec) {
  int input_dim = spec.image_size * spec.image_size;
  uint64_t seed = spec.seed;
  return [input_dim, seed] {
    Rng rng(seed);
    return nn::BuildMlp(input_dim, {8}, 10, rng);
  };
}

data::Dataset ClusterEvalData(const ClusterSpec& spec) {
  return ClusterSynth(spec, spec.eval_examples, spec.seed + 8);
}

std::vector<std::unique_ptr<fl::Party>> BuildLocalParties(
    const ClusterSpec& spec, const std::vector<std::string>& local_parties) {
  std::vector<std::unique_ptr<fl::Party>> out;
  if (local_parties.empty()) {
    return out;
  }
  // Every process derives the identical full split, then keeps only its shards — the
  // shard a party trains on must not depend on which process hosts it.
  data::Dataset full =
      ClusterSynth(spec, spec.examples_per_party * spec.parties, spec.seed + 5);
  Rng split_rng(spec.seed + 9);
  std::vector<data::Dataset> shards = data::SplitIid(full, spec.parties, split_rng);
  fl::TrainConfig train = ClusterTrainConfig(spec);
  fl::ModelFactory factory = ClusterModelFactory(spec);
  std::vector<std::string> names = spec.PartyNames();
  for (const std::string& name : local_parties) {
    size_t index = names.size();
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) {
        index = i;
        break;
      }
    }
    DETA_CHECK_MSG(index < names.size(), "unknown party role: " << name);
    out.push_back(std::make_unique<fl::Party>(name, shards[index], factory, train,
                                              spec.seed + 100 + index));
  }
  return out;
}

// --- process orchestration ---

bool ClusterResult::AllExitedCleanly() const {
  for (const RoleOutcome& role : roles) {
    if (role.exit_code != 0) {
      return false;
    }
  }
  return true;
}

namespace {

pid_t SpawnRole(const std::string& self_exe, const std::vector<std::string>& args) {
  std::vector<char*> argv;
  // posix_spawn takes char* const argv[] for C compatibility but never writes
  // through it; these casts adapt to that API and touch no secret material.
  argv.push_back(const_cast<char*>(self_exe.c_str()));  // NOLINT(cppcoreguidelines-pro-type-const-cast)
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));  // NOLINT(cppcoreguidelines-pro-type-const-cast)
  }
  argv.push_back(nullptr);
  pid_t pid = -1;
  int rc = ::posix_spawn(&pid, self_exe.c_str(), nullptr, nullptr, argv.data(), environ);
  if (rc != 0) {
    LOG_ERROR << "cluster: posix_spawn(" << self_exe << ") failed: " << rc;
    return -1;
  }
  return pid;
}

int DecodeWaitStatus(int status) {
  if (WIFEXITED(status)) {
    return WEXITSTATUS(status);
  }
  if (WIFSIGNALED(status)) {
    return 128 + WTERMSIG(status);
  }
  return -1;
}

// mkdir -p. Returns false when a component cannot be created. Every process of the
// cluster calls this for the telemetry dir, so EEXIST races are expected and fine.
bool MakeDirs(const std::string& dir) {
  if (dir.empty() || dir == "/" || dir == ".") {
    return true;
  }
  struct stat st{};
  if (::stat(dir.c_str(), &st) == 0) {
    return S_ISDIR(st.st_mode);
  }
  size_t slash = dir.find_last_of('/');
  if (slash != std::string::npos && slash > 0 && !MakeDirs(dir.substr(0, slash))) {
    return false;
  }
  return ::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST;
}

void WriteRoleTelemetry(const ClusterSpec& spec, const std::string& role,
                        const telemetry::TelemetrySnapshot& snapshot) {
  if (spec.telemetry_dir.empty()) {
    return;
  }
  if (!MakeDirs(spec.telemetry_dir)) {
    LOG_WARNING << "cluster: cannot create telemetry dir " << spec.telemetry_dir;
    return;
  }
  std::string path = spec.telemetry_dir + "/" + role + ".json";
  if (!telemetry::WriteJsonFile(snapshot, path)) {
    LOG_WARNING << "cluster: failed to write telemetry for " << role << " to " << path;
  }
}

}  // namespace

ClusterResult LaunchCluster(const ClusterSpec& spec, const std::string& self_exe) {
  DETA_CHECK_GT(spec.parties, 0);
  DETA_CHECK_GT(spec.aggregators, 0);

  // The parent hosts the name registry; children dial the bound address.
  net::TcpTransportOptions topts;
  topts.listen_host = spec.listen_host;
  topts.listen_port = spec.registry_port;
  topts.node_name = "cluster-parent";
  net::TcpTransport transport(topts);
  const std::string registry_addr = transport.registry_address();
  LOG_INFO << "cluster: registry at " << registry_addr;

  ClusterResult result;
  std::vector<std::string> base_args = spec.ToArgs();
  for (const std::string& role : spec.ChildRoles()) {
    std::vector<std::string> args = base_args;
    args.push_back("--role=" + role);
    args.push_back("--registry=" + registry_addr);
    RoleOutcome outcome;
    outcome.role = role;
    outcome.pid = SpawnRole(self_exe, args);
    result.roles.push_back(outcome);
  }

  // The observer runs in-process; children host every other role.
  DetaDeployment deployment;
  deployment.transport = &transport;
  deployment.local_roles = {"observer"};
  deployment.party_names = spec.PartyNames();
  DetaJob job(BuildExecutionOptions(spec), BuildDetaOptions(spec), {},
              ClusterModelFactory(spec), ClusterEvalData(spec), deployment);
  result.observer = job.Run();
  WriteRoleTelemetry(spec, "observer", result.observer.telemetry);

  // Bounded reap: children exit on their own once the protocol completes (or once the
  // observer's failure path fanned out shutdown); stragglers past the grace window are
  // killed and reported as failures rather than hanging the parent.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (RoleOutcome& role : result.roles) {
    if (role.pid < 0) {
      continue;  // spawn failed; exit_code stays -1
    }
    int status = 0;
    for (;;) {
      pid_t done = ::waitpid(role.pid, &status, WNOHANG);
      if (done == role.pid) {
        role.exit_code = DecodeWaitStatus(status);
        break;
      }
      if (done < 0) {
        role.exit_code = -1;
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        LOG_ERROR << "cluster: role " << role.role << " (pid " << role.pid
                  << ") did not exit; killing it";
        ::kill(role.pid, SIGKILL);
        ::waitpid(role.pid, &status, 0);
        role.exit_code = DecodeWaitStatus(status);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    LOG_INFO << "cluster: role " << role.role << " exited with code " << role.exit_code;
  }
  return result;
}

int RunClusterChild(const ClusterSpec& spec, const std::string& role,
                    const std::string& registry_addr) {
  net::TcpTransportOptions topts;
  topts.listen_host = spec.listen_host;
  topts.listen_port = 0;
  topts.registry_addr = registry_addr;
  topts.node_name = role;
  net::TcpTransport transport(topts);

  std::vector<std::string> local_parties;
  for (const std::string& name : spec.PartyNames()) {
    if (name == role) {
      local_parties.push_back(name);
    }
  }
  DetaDeployment deployment;
  deployment.transport = &transport;
  deployment.local_roles = {role};
  deployment.party_names = spec.PartyNames();
  DetaJob job(BuildExecutionOptions(spec), BuildDetaOptions(spec),
              BuildLocalParties(spec, local_parties), ClusterModelFactory(spec),
              ClusterEvalData(spec), deployment);
  fl::JobResult result = job.Run();
  WriteRoleTelemetry(spec, role, result.telemetry);
  if (!result.ok()) {
    LOG_ERROR << "cluster: role " << role << " run failed ("
              << fl::JobStatusName(result.status) << "): " << result.error;
    return 1;
  }
  return 0;
}

}  // namespace deta::core

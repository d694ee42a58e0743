#include "sched/schedule.h"

#include <algorithm>
#include <deque>
#include <map>

#include "sched/net.h"

namespace asicpp::sched {

std::vector<int> levelize_actions(const std::vector<std::vector<std::int32_t>>& needs,
                                  const std::vector<std::vector<std::int32_t>>& produces,
                                  const std::vector<int>& after,
                                  std::vector<int>* cycle_out) {
  const int n = static_cast<int>(needs.size());

  // Producer map: edges run producer → consumer for every net some action
  // produces in phase 2. Nets with no producer are available before the
  // walk starts (phase-1 tokens, external drives) and add no edges.
  std::map<std::int32_t, std::vector<int>> producers;
  for (int i = 0; i < n; ++i) {
    for (const std::int32_t net : produces[i]) producers[net].push_back(i);
  }

  std::vector<std::vector<int>> adj(n);
  std::vector<int> indeg(n, 0);
  const auto add_edge = [&](int from, int to) {
    adj[from].push_back(to);
    ++indeg[to];
  };
  for (int i = 0; i < n; ++i) {
    for (const std::int32_t net : needs[i]) {
      const auto it = producers.find(net);
      if (it == producers.end()) continue;
      for (const int p : it->second) add_edge(p, i);
    }
    if (after[i] >= 0) add_edge(after[i], i);
  }

  // Kahn's algorithm with longest-path level assignment.
  std::vector<int> level(n, 0);
  std::deque<int> ready;
  for (int i = 0; i < n; ++i) {
    if (indeg[i] == 0) ready.push_back(i);
  }
  int done = 0;
  while (!ready.empty()) {
    const int u = ready.front();
    ready.pop_front();
    ++done;
    for (const int v : adj[u]) {
      level[v] = std::max(level[v], level[u] + 1);
      if (--indeg[v] == 0) ready.push_back(v);
    }
  }
  if (done == n) return level;

  // Cyclic: every unprocessed action sits on or behind a cycle. Walk
  // forward through unprocessed successors until an action repeats.
  if (cycle_out != nullptr) {
    cycle_out->clear();
    int start = -1;
    for (int i = 0; i < n && start < 0; ++i) {
      if (indeg[i] > 0) start = i;
    }
    std::vector<int> pos(n, -1);
    std::vector<int> path;
    int u = start;
    while (u >= 0 && pos[u] < 0) {
      pos[u] = static_cast<int>(path.size());
      path.push_back(u);
      int next = -1;
      for (const int v : adj[u]) {
        if (indeg[v] > 0) {
          next = v;
          break;
        }
      }
      u = next;
    }
    if (u >= 0) cycle_out->assign(path.begin() + pos[u], path.end());
  }
  return {};
}

Schedule Schedule::build(const std::vector<Component*>& comps) {
  Schedule s;
  s.ncomps_ = comps.size();

  std::vector<Component*> act_comp;
  std::vector<std::vector<std::int32_t>> needs;
  std::vector<std::vector<std::int32_t>> produces;
  std::vector<int> after;

  std::map<const Net*, std::int32_t> net_ids;
  const auto ids_of = [&](const std::vector<const Net*>& nets) {
    std::vector<std::int32_t> ids;
    ids.reserve(nets.size());
    for (const Net* n : nets) {
      const auto [it, inserted] =
          net_ids.emplace(n, static_cast<std::int32_t>(net_ids.size()));
      (void)inserted;
      ids.push_back(it->second);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
  };

  for (Component* c : comps) {
    const Component::StaticDeps d = c->static_deps();
    if (!d.schedulable) {
      s.reason_ = "component '" + c->name() + "' has no static firing order";
      return s;
    }
    int decode_idx = -1;
    if (d.has_decode) {
      decode_idx = static_cast<int>(act_comp.size());
      act_comp.push_back(c);
      needs.push_back(ids_of(d.decode_requires));
      produces.push_back(ids_of(d.decode_produces));
      after.push_back(-1);
    }
    act_comp.push_back(c);
    needs.push_back(ids_of(d.fire_requires));
    produces.push_back(ids_of(d.fire_produces));
    after.push_back(decode_idx);
  }

  std::vector<int> cyc;
  const std::vector<int> levels = levelize_actions(needs, produces, after, &cyc);
  if (levels.size() != act_comp.size()) {
    std::string msg = "dependency cycle:";
    for (const int a : cyc) {
      // The decode and firing actions of one dispatch component may both
      // appear; naming the component once is enough.
      if (msg.empty() || msg.rfind(act_comp[a]->name()) == std::string::npos)
        msg += " " + act_comp[a]->name();
    }
    s.reason_ = msg;
    return s;
  }

  std::vector<int> idx(act_comp.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int>(i);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](int a, int b) { return levels[a] < levels[b]; });
  s.order_.reserve(idx.size());
  for (const int i : idx) {
    s.order_.push_back(Slot{act_comp[i], levels[i]});
    s.levels_ = std::max(s.levels_, levels[i] + 1);
  }
  s.valid_ = true;
  return s;
}

}  // namespace asicpp::sched

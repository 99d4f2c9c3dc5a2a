#include "ks/streaming.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"
#include "util/sort.h"
#include "util/string_util.h"

namespace moche {

// One distinct window value and its multiplicity. le/lt are the two score
// candidates of the file header, stored before the pending `lazy` tags of
// this node and its ancestors are applied.
struct StreamingKs::Node {
  double key = 0.0;
  uint64_t pri = 0;
  int64_t le = 0;     // m * rank_<=(key) - n * C_W(<= key)
  int64_t lt = 0;     // m * rank_<(key) - n * C_W(< key)
  int64_t lazy = 0;   // pending addition to both scores of the subtree
  int64_t smax = 0;   // subtree max over le and lt (before lazy)
  int64_t smin = 0;
  int64_t count = 0;  // window copies of key
  int64_t size = 0;   // subtree window count
  Node* l = nullptr;
  Node* r = nullptr;
};

class StreamingKs::Treap {
 public:
  ~Treap() {
    Free(root_);
    while (free_list_ != nullptr) {
      Node* next = free_list_->l;
      delete free_list_;
      free_list_ = next;
    }
  }

  // Adds one copy of `key`. `rank_lt`/`rank_le` are the reference ranks of
  // key; n and m the sample sizes.
  void Insert(double key, int64_t rank_lt, int64_t rank_le, int64_t n,
              int64_t m) {
    Node* less = nullptr;
    Node* equal = nullptr;
    Node* greater = nullptr;
    Split3(key, &less, &equal, &greater);
    AddLazy(greater, -n);
    if (equal == nullptr) {
      const int64_t below = Size(less);  // C_W(< key)
      equal = Acquire();
      equal->key = key;
      equal->pri = NextPriority();
      equal->lt = m * rank_lt - n * below;
      equal->le = m * rank_le - n * (below + 1);
      equal->count = 1;
    } else {
      ++equal->count;
      equal->le -= n;
    }
    Pull(equal);
    root_ = Merge(Merge(less, equal), greater);
  }

  // Removes one copy of `key`, which must be in the window.
  void Erase(double key, int64_t n) {
    Node* less = nullptr;
    Node* equal = nullptr;
    Node* greater = nullptr;
    Split3(key, &less, &equal, &greater);
    MOCHE_CHECK(equal != nullptr);
    AddLazy(greater, n);
    if (--equal->count == 0) {
      Recycle(equal);
      equal = nullptr;
    } else {
      equal->le += n;
      Pull(equal);
    }
    root_ = Merge(Merge(less, equal), greater);
  }

  // Builds the treap of a restored window from `sorted`, the window's
  // values in ascending order, in one pass instead of an Insert per value:
  // each distinct key's scores come straight from one equal_range in the
  // sorted `reference` and the running window count, equal to what
  // replaying the window would leave. Priorities are drawn in key order
  // and the nodes hung on a rightmost-spine stack (a Cartesian-tree build),
  // so only the tree shape differs from a replay. O(D log n) for D
  // distinct keys. Requires an empty treap.
  void BuildSorted(const std::vector<double>& sorted,
                   const std::vector<double>& reference, int64_t n,
                   int64_t m) {
    MOCHE_DCHECK(root_ == nullptr);
    std::vector<Node*> spine;  // root first; priorities ascend upward
    int64_t below = 0;         // C_W(< key)
    for (size_t i = 0; i < sorted.size();) {
      const double key = sorted[i];
      size_t end = i + 1;
      while (end < sorted.size() && sorted[end] == key) ++end;
      const auto [lo, hi] =
          std::equal_range(reference.begin(), reference.end(), key);
      Node* node = Acquire();
      node->key = key;
      node->pri = NextPriority();
      node->count = static_cast<int64_t>(end - i);
      node->lt = m * (lo - reference.begin()) - n * below;
      below += node->count;
      node->le = m * (hi - reference.begin()) - n * below;
      // Spine nodes that lose the heap order to `node` become its left
      // subtree. No later node lands below them, so they are final and
      // aggregate now — deepest first, so children pull before parents.
      Node* left = nullptr;
      while (!spine.empty() && spine.back()->pri > node->pri) {
        left = spine.back();
        spine.pop_back();
        Pull(left);
      }
      node->l = left;
      if (!spine.empty()) spine.back()->r = node;
      spine.push_back(node);
      i = end;
    }
    if (spine.empty()) return;
    root_ = spine.front();
    for (auto it = spine.rbegin(); it != spine.rend(); ++it) Pull(*it);
  }

  int64_t MaxAbsScore() const {
    if (root_ == nullptr) return 0;
    return std::max(std::abs(ScoreMax(root_)), std::abs(ScoreMin(root_)));
  }

 private:
  static int64_t ScoreMax(const Node* n) { return n->smax + n->lazy; }
  static int64_t ScoreMin(const Node* n) { return n->smin + n->lazy; }
  static int64_t Size(const Node* n) { return n == nullptr ? 0 : n->size; }

  static void AddLazy(Node* n, int64_t delta) {
    if (n != nullptr) n->lazy += delta;
  }

  static void PushDown(Node* n) {
    if (n->lazy != 0) {
      n->le += n->lazy;
      n->lt += n->lazy;
      n->smax += n->lazy;
      n->smin += n->lazy;
      AddLazy(n->l, n->lazy);
      AddLazy(n->r, n->lazy);
      n->lazy = 0;
    }
  }

  static void Pull(Node* n) {
    n->size = n->count;
    n->smax = std::max(n->le, n->lt);
    n->smin = std::min(n->le, n->lt);
    for (const Node* child : {n->l, n->r}) {
      if (child == nullptr) continue;
      n->size += child->size;
      n->smax = std::max(n->smax, ScoreMax(child));
      n->smin = std::min(n->smin, ScoreMin(child));
    }
  }

  // (keys < key, keys >= key) when `strict`, else (keys <= key, keys > key).
  static void Split(Node* n, double key, bool strict, Node** left,
                    Node** right) {
    if (n == nullptr) {
      *left = nullptr;
      *right = nullptr;
      return;
    }
    PushDown(n);
    if (strict ? n->key < key : n->key <= key) {
      Split(n->r, key, strict, &n->r, right);
      Pull(n);
      *left = n;
    } else {
      Split(n->l, key, strict, left, &n->l);
      Pull(n);
      *right = n;
    }
  }

  // Splits the whole tree around `key`; `equal` is its node or null. Every
  // returned root has been pushed down (lazy 0).
  void Split3(double key, Node** less, Node** equal, Node** greater) {
    Node* rest = nullptr;
    Split(root_, key, /*strict=*/true, less, &rest);
    Split(rest, key, /*strict=*/false, equal, greater);
    root_ = nullptr;
  }

  static Node* Merge(Node* a, Node* b) {
    if (a == nullptr) return b;
    if (b == nullptr) return a;
    if (a->pri < b->pri) {
      PushDown(a);
      a->r = Merge(a->r, b);
      Pull(a);
      return a;
    }
    PushDown(b);
    b->l = Merge(a, b->l);
    Pull(b);
    return b;
  }

  // Priorities only shape the tree, never a score: a SplitMix64 sequence
  // keeps them deterministic per detector at 8 bytes of state.
  uint64_t NextPriority() {
    uint64_t z = (pri_state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  // One node, recycled from the free list when possible: the steady state
  // (one eviction per insertion) runs entirely off recycled nodes, so a
  // full window pushes with zero heap traffic.
  Node* Acquire() {
    if (free_list_ == nullptr) return new Node;
    Node* node = free_list_;
    free_list_ = node->l;
    *node = Node{};
    return node;
  }

  void Recycle(Node* n) {
    n->l = free_list_;
    free_list_ = n;
  }

  static void Free(Node* n) {
    if (n == nullptr) return;
    Free(n->l);
    Free(n->r);
    delete n;
  }

  Node* root_ = nullptr;
  Node* free_list_ = nullptr;  // chained through Node::l
  uint64_t pri_state_ = 0x5EED5EED5EED5EEDull;
};

StreamingKs::StreamingKs(
    std::shared_ptr<const std::vector<double>> sorted_reference,
    size_t window_size, double alpha)
    : reference_(std::move(sorted_reference)),
      window_size_(window_size),
      alpha_(alpha),
      treap_(std::make_unique<Treap>()) {}

StreamingKs::StreamingKs(StreamingKs&&) noexcept = default;
StreamingKs& StreamingKs::operator=(StreamingKs&&) noexcept = default;
StreamingKs::~StreamingKs() = default;

Status StreamingKs::ValidateShared(
    const std::shared_ptr<const std::vector<double>>& sorted_reference,
    uint64_t window_size, double alpha) {
  if (sorted_reference == nullptr || sorted_reference->empty()) {
    return Status::InvalidArgument("reference set is empty");
  }
  if (!std::isfinite(sorted_reference->front()) ||
      !std::isfinite(sorted_reference->back())) {
    return Status::InvalidArgument("reference set is not finite");
  }
  MOCHE_DCHECK(std::is_sorted(sorted_reference->begin(),
                              sorted_reference->end()));
  if (window_size == 0) {
    return Status::InvalidArgument("window size must be positive");
  }
  MOCHE_RETURN_IF_ERROR(ks::ValidateAlpha(alpha));
  const uint64_t n = sorted_reference->size();
  if (n > kMaxScoreProduct / window_size) {
    return Status::InvalidArgument(StrFormat(
        "reference size %llu times window size %llu exceeds the 2^60 score "
        "bound",
        static_cast<unsigned long long>(n),
        static_cast<unsigned long long>(window_size)));
  }
  return Status::OK();
}

Result<StreamingKs> StreamingKs::Create(const std::vector<double>& reference,
                                        size_t window_size, double alpha) {
  MOCHE_RETURN_IF_ERROR(ks::ValidateSample(reference, "reference set"));
  auto sorted = std::make_shared<std::vector<double>>(reference);
  SortDoubles(sorted->data(), sorted->size());
  return CreateOverSorted(std::move(sorted), window_size, alpha);
}

Result<StreamingKs> StreamingKs::CreateOverSorted(
    std::shared_ptr<const std::vector<double>> sorted_reference,
    size_t window_size, double alpha) {
  MOCHE_RETURN_IF_ERROR(ValidateShared(sorted_reference, window_size, alpha));
  StreamingKs stream(std::move(sorted_reference), window_size, alpha);
  stream.window_.reserve(window_size);  // the ring, allocated once
  return stream;
}

Status StreamingKs::Push(double value) {
  if (!std::isfinite(value)) {
    return Status::InvalidArgument("observation is not finite");
  }
  const int64_t n = static_cast<int64_t>(reference_->size());
  if (WindowFull()) {
    treap_->Erase(window_[window_head_], n);
    window_[window_head_] = value;
    window_head_ = (window_head_ + 1) % window_size_;
  } else {
    window_.push_back(value);
  }
  const auto [lo, hi] =
      std::equal_range(reference_->begin(), reference_->end(), value);
  treap_->Insert(value, lo - reference_->begin(), hi - reference_->begin(), n,
                 static_cast<int64_t>(window_size_));
  return Status::OK();
}

void StreamingKs::SerializeStateTo(std::string* out) const {
  bin::AppendU64Le(static_cast<uint64_t>(reference_->size()), out);
  bin::AppendU64Le(static_cast<uint64_t>(window_size_), out);
  bin::AppendDoubleLe(alpha_, out);
  bin::AppendU64Le(static_cast<uint64_t>(window_.size()), out);
  for (size_t i = 0; i < window_.size(); ++i) {
    bin::AppendDoubleLe(window_[(window_head_ + i) % window_.size()], out);
  }
}

Result<StreamingKs> StreamingKs::DeserializeState(
    std::shared_ptr<const std::vector<double>> sorted_reference,
    bin::Reader* reader) {
  uint64_t n = 0;
  uint64_t window_size = 0;
  double alpha = 0.0;
  uint64_t window_count = 0;
  if (!reader->ReadU64Le(&n) || !reader->ReadU64Le(&window_size) ||
      !reader->ReadDoubleLe(&alpha) || !reader->ReadU64Le(&window_count)) {
    return Status::InvalidArgument(
        "streaming detector: snapshot truncated in the state header");
  }
  const size_t reference_size =
      sorted_reference == nullptr ? 0 : sorted_reference->size();
  if (n != reference_size) {
    return Status::InvalidArgument(
        StrFormat("streaming detector: snapshot was taken over a reference "
                  "of %llu values, restore got %zu",
                  static_cast<unsigned long long>(n), reference_size));
  }
  if (window_count > window_size) {
    return Status::InvalidArgument(StrFormat(
        "streaming detector: snapshot window holds %llu of %llu values",
        static_cast<unsigned long long>(window_count),
        static_cast<unsigned long long>(window_size)));
  }
  if (window_count > reader->remaining() / 8) {
    return Status::InvalidArgument(
        "streaming detector: snapshot truncated inside the window ring");
  }
  // Re-validates the reference, window size (incl. the score bound) and
  // alpha. The ring is sized to what the snapshot holds and laid out in
  // arrival order (head 0); every value is checked finite before any score
  // is computed from it.
  MOCHE_RETURN_IF_ERROR(ValidateShared(sorted_reference, window_size, alpha));
  StreamingKs stream(std::move(sorted_reference),
                     static_cast<size_t>(window_size), alpha);
  stream.window_.resize(static_cast<size_t>(window_count));
  for (double& value : stream.window_) {
    reader->ReadDoubleLe(&value);  // bounded above; cannot fail
    if (!std::isfinite(value)) {
      return Status::InvalidArgument(
          "streaming detector: snapshot window holds a non-finite value");
    }
  }
  // Scores are a pure function of the reference and window multisets, so
  // the treap is built from one sorted copy of the window rather than by
  // replaying it through Push.
  std::vector<double> sorted = stream.window_;
  SortDoubles(sorted.data(), sorted.size());
  stream.treap_->BuildSorted(sorted, *stream.reference_,
                             static_cast<int64_t>(n),
                             static_cast<int64_t>(window_size));
  return stream;
}

std::vector<double> StreamingKs::WindowContents() const {
  std::vector<double> out;
  WindowContentsInto(&out);
  return out;
}

void StreamingKs::WindowContentsInto(std::vector<double>* out) const {
  out->clear();
  out->reserve(window_.size());
  for (size_t i = 0; i < window_.size(); ++i) {
    out->push_back(window_[(window_head_ + i) % window_.size()]);
  }
}

Result<KsOutcome> StreamingKs::CurrentOutcome() const {
  if (!WindowFull()) {
    return Status::InvalidArgument(
        StrFormat("window holds %zu of %zu observations", window_.size(),
                  window_size_));
  }
  const size_t n = reference_->size();
  const double statistic =
      static_cast<double>(treap_->MaxAbsScore()) /
      (static_cast<double>(n) * static_cast<double>(window_size_));
  // alpha / sizes were validated by ValidateShared.
  return ks::internal::DecideUnchecked(statistic, n, window_size_, alpha_);
}

bool StreamingKs::Drifted() const {
  if (!WindowFull()) return false;
  auto outcome = CurrentOutcome();
  return outcome.ok() && outcome->reject;
}

}  // namespace moche

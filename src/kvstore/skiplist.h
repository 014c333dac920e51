// Concurrent-read skiplist (LevelDB design): one writer at a time (the DB
// write path is serialized), readers proceed without locks thanks to
// release-stores on next pointers and acquire-loads in readers. Keys are
// arena-allocated char sequences owned by the memtable.
#pragma once

#include <atomic>
#include <cassert>

#include "common/rng.h"
#include "common/types.h"
#include "kvstore/arena.h"

namespace teeperf::kvs {

// Comparator: int compare(const char* a, const char* b) — three-way.
template <typename Key, typename Comparator>
class SkipList {
 public:
  SkipList(Comparator cmp, Arena* arena)
      : compare_(cmp), arena_(arena), rng_(0xdeadbeef) {
    head_ = new_node(Key{}, kMaxHeight);
    for (int i = 0; i < kMaxHeight; ++i) head_->set_next(i, nullptr);
  }

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  // Requires: key is not already present (the memtable guarantees this by
  // tagging every entry with a unique sequence number).
  void insert(const Key& key) {
    Node* prev[kMaxHeight];
    Node* x = find_greater_or_equal(key, prev);
    assert(x == nullptr || compare_(key, x->key) != 0);

    int height = random_height();
    if (height > height_.load(std::memory_order_relaxed)) {
      for (int i = height_.load(std::memory_order_relaxed); i < height; ++i) {
        prev[i] = head_;
      }
      height_.store(height, std::memory_order_relaxed);
    }

    x = new_node(key, height);
    for (int i = 0; i < height; ++i) {
      // No synchronization needed for prev links: only one writer.
      x->set_next_relaxed(i, prev[i]->next_relaxed(i));
      prev[i]->set_next(i, x);  // release: publishes the node
    }
  }

  bool contains(const Key& key) const {
    const Node* x = find_greater_or_equal(key, nullptr);
    return x != nullptr && compare_(key, x->key) == 0;
  }

  class Iterator {
   public:
    explicit Iterator(const SkipList* list) : list_(list) {}

    bool valid() const { return node_ != nullptr; }
    const Key& key() const { return node_->key; }
    void next() { node_ = node_->next(0); }
    void seek(const Key& target) { node_ = list_->find_greater_or_equal(target, nullptr); }
    void seek_to_first() { node_ = list_->head_->next(0); }

   private:
    const SkipList* list_;
    const typename SkipList::Node* node_ = nullptr;
  };

 private:
  static constexpr int kMaxHeight = 12;

  struct Node {
    explicit Node(const Key& k) : key(k) {}
    Key const key;

    Node* next(int level) const {
      return next_[level].load(std::memory_order_acquire);
    }
    void set_next(int level, Node* n) {
      next_[level].store(n, std::memory_order_release);
    }
    Node* next_relaxed(int level) const {
      return next_[level].load(std::memory_order_relaxed);
    }
    void set_next_relaxed(int level, Node* n) {
      next_[level].store(n, std::memory_order_relaxed);
    }

    // Over-allocated: next_[height] pointers follow the node in the arena.
    std::atomic<Node*> next_[1];
  };

  Node* new_node(const Key& key, int height) {
    char* mem = arena_->allocate_aligned(
        sizeof(Node) + sizeof(std::atomic<Node*>) * static_cast<usize>(height - 1));
    return new (mem) Node(key);
  }

  int random_height() {
    int h = 1;
    while (h < kMaxHeight && rng_.next_below(4) == 0) ++h;  // p = 1/4
    return h;
  }

  Node* find_greater_or_equal(const Key& key, Node** prev) const {
    Node* x = head_;
    int level = height_.load(std::memory_order_relaxed) - 1;
    while (true) {
      Node* next = x->next(level);
      if (next != nullptr && compare_(next->key, key) < 0) {
        x = next;
      } else {
        if (prev != nullptr) prev[level] = x;
        if (level == 0) return next;
        --level;
      }
    }
  }

  Comparator const compare_;
  Arena* const arena_;
  Node* head_;
  std::atomic<int> height_{1};
  Xorshift64 rng_;
};

}  // namespace teeperf::kvs

#include "src/fs/file_node.h"

#include <algorithm>
#include <cassert>
#include <string_view>

#include "src/base/format.h"

namespace ntrace {

namespace {

// Steps `rest` past its next non-empty backslash-separated component
// (same semantics as SplitPath, minus the per-component std::string).
bool NextPathPart(std::string_view* rest, std::string_view* part) {
  while (!rest->empty()) {
    const size_t end = rest->find('\\');
    std::string_view p;
    if (end == std::string_view::npos) {
      p = *rest;
      *rest = {};
    } else {
      p = rest->substr(0, end);
      *rest = rest->substr(end + 1);
    }
    if (!p.empty()) {
      *part = p;
      return true;
    }
  }
  return false;
}

}  // namespace

bool CaseInsensitiveLess::operator()(std::string_view a, std::string_view b) const {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const unsigned char ca = AsciiFold(static_cast<unsigned char>(a[i]));
    const unsigned char cb = AsciiFold(static_cast<unsigned char>(b[i]));
    if (ca != cb) {
      return ca < cb;
    }
  }
  return a.size() < b.size();
}

std::string FileNode::RelativePath() const {
  if (parent_ == nullptr) {
    return "";
  }
  std::vector<const FileNode*> chain;
  for (const FileNode* n = this; n->parent_ != nullptr; n = n->parent_) {
    chain.push_back(n);
  }
  std::string out;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (!out.empty()) {
      out += '\\';
    }
    out += (*it)->name();
  }
  return out;
}

FileNode* FileNode::FindChild(std::string_view name) {
  auto it = children_.find(name);
  return it == children_.end() ? nullptr : it->second.get();
}

FileNode* FileNode::AddChild(std::unique_ptr<FileNode> child) {
  assert(directory_);
  child->parent_ = this;
  FileNode* raw = child.get();
  children_[child->name()] = std::move(child);
  return raw;
}

std::unique_ptr<FileNode> FileNode::DetachChild(std::string_view name) {
  auto it = children_.find(name);
  if (it == children_.end()) {
    return nullptr;
  }
  std::unique_ptr<FileNode> out = std::move(it->second);
  children_.erase(it);
  out->parent_ = nullptr;
  return out;
}

Volume::Volume(std::string label, uint64_t capacity_bytes, bool maintain_access_times)
    : label_(std::move(label)),
      capacity_bytes_(capacity_bytes),
      maintain_access_times_(maintain_access_times) {
  root_ = std::make_unique<FileNode>(next_node_id_++, "", /*directory=*/true);
  root_->attributes = kAttrDirectory;
}

FileNode* Volume::Lookup(const std::string& relative_path) {
  FileNode* node = root_.get();
  std::string_view rest = relative_path;
  std::string_view part;
  while (NextPathPart(&rest, &part)) {
    if (!node->directory()) {
      return nullptr;
    }
    node = node->FindChild(part);
    if (node == nullptr) {
      return nullptr;
    }
  }
  return node;
}

FileNode* Volume::LookupParent(std::string_view relative_path, std::string_view* leaf) {
  std::string_view rest = relative_path;
  std::string_view current;
  if (!NextPathPart(&rest, &current)) {
    return nullptr;  // The root has no parent.
  }
  FileNode* node = root_.get();
  std::string_view next;
  while (NextPathPart(&rest, &next)) {
    if (!node->directory()) {
      return nullptr;
    }
    node = node->FindChild(current);
    if (node == nullptr) {
      return nullptr;
    }
    current = next;
  }
  if (!node->directory()) {
    return nullptr;
  }
  *leaf = current;
  return node;
}

FileNode* Volume::CreateNode(FileNode* parent, std::string_view name, bool directory,
                             uint32_t attributes, SimTime now) {
  assert(parent != nullptr && parent->directory());
  assert(parent->FindChild(name) == nullptr);
  auto node = std::make_unique<FileNode>(next_node_id_++, std::string(name), directory);
  node->attributes = directory ? (attributes | kAttrDirectory) : attributes;
  node->creation_time = now;
  node->last_access_time = now;
  node->last_write_time = now;
  node->disk_position = AssignDiskPosition(0);
  return parent->AddChild(std::move(node));
}

FileNode* Volume::CreatePath(const std::string& relative_path, bool directory,
                             uint32_t attributes, SimTime now) {
  FileNode* node = root_.get();
  std::string_view rest = relative_path;
  std::string_view part;
  bool have_part = NextPathPart(&rest, &part);
  while (have_part) {
    std::string_view next;
    const bool have_next = NextPathPart(&rest, &next);
    const bool leaf = !have_next;
    FileNode* child = node->FindChild(part);
    if (child == nullptr) {
      child = CreateNode(node, std::string(part), leaf ? directory : true,
                         leaf ? attributes : kAttrDirectory, now);
    }
    node = child;
    part = next;
    have_part = have_next;
  }
  return node;
}

void Volume::RemoveNode(FileNode* node) {
  assert(node != nullptr && node->parent() != nullptr);
  if (!node->directory()) {
    assert(used_bytes_ >= node->size);
    used_bytes_ -= node->size;
  }
  std::unique_ptr<FileNode> detached = node->parent()->DetachChild(node->name());
  assert(detached != nullptr);
  graveyard_.push_back(std::move(detached));
}

void Volume::NodeResized(FileNode* node, uint64_t new_size) {
  assert(!node->directory());
  assert(used_bytes_ >= node->size);
  used_bytes_ = used_bytes_ - node->size + new_size;
  node->size = new_size;
  // Allocation is page granular.
  node->allocation = (new_size + 4095) / 4096 * 4096;
}

void Volume::WalkNode(const FileNode& node,
                      const std::function<void(const FileNode&)>& visit) const {
  visit(node);
  for (const auto& [_, child] : node.children()) {
    WalkNode(*child, visit);
  }
}

void Volume::Walk(const std::function<void(const FileNode&)>& visit) const {
  WalkNode(*root_, visit);
}

VolumeCounts Volume::Counts() const {
  VolumeCounts counts;
  Walk([&counts](const FileNode& node) {
    if (node.directory()) {
      ++counts.directories;
    } else {
      ++counts.files;
      counts.total_file_bytes += node.size;
    }
  });
  return counts;
}

uint64_t Volume::AssignDiskPosition(uint64_t bytes) {
  const uint64_t pos = next_disk_position_;
  next_disk_position_ += std::max<uint64_t>(bytes, 4096);
  return pos;
}

}  // namespace ntrace

// The on-"disk" namespace: file and directory nodes, and the Volume that
// owns them.
//
// Files carry the three NT timestamps (creation, last access, last write)
// whose unreliability section 5 of the paper documents -- applications can
// and do set them (installers back-date creation times), which the workload
// layer exploits to reproduce that observation. File data is modeled by
// size/allocation only; the page cache tracks which logical pages are
// resident, so no byte content is stored.

#ifndef SRC_FS_FILE_NODE_H_
#define SRC_FS_FILE_NODE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/time.h"
#include "src/ntio/fcb.h"
#include "src/ntio/irp.h"

namespace ntrace {

// NT file names are case-insensitive (case-preserving). Transparent so
// child lookups take string_views: path resolution happens on every open,
// and materializing each component as a std::string was a measurable slice
// of the hot path (DESIGN.md §9).
struct CaseInsensitiveLess {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const;
};

// FileNode embeds FcbHeader, so `size` and `allocation` below are the fields
// layered components read through FileObject::fcb.
class FileNode : public FcbHeader {
 public:
  FileNode(uint64_t id, std::string name, bool directory)
      : id_(id), name_(std::move(name)), directory_(directory) {}

  FileNode(const FileNode&) = delete;
  FileNode& operator=(const FileNode&) = delete;

  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }
  bool directory() const { return directory_; }
  FileNode* parent() const { return parent_; }

  // Full path below the volume root, backslash separated (no prefix).
  std::string RelativePath() const;

  // Children (directories only).
  using ChildMap = std::map<std::string, std::unique_ptr<FileNode>, CaseInsensitiveLess>;
  const ChildMap& children() const { return children_; }
  FileNode* FindChild(std::string_view name);
  FileNode* AddChild(std::unique_ptr<FileNode> child);
  std::unique_ptr<FileNode> DetachChild(std::string_view name);

  // --- Attributes (sizes live in the FcbHeader base) ---
  uint32_t attributes = kAttrNormal;
  SimTime creation_time;
  SimTime last_access_time;
  SimTime last_write_time;

  // --- Runtime state ---
  int open_count = 0;
  bool delete_pending = false;

  // Share-access bookkeeping (NT: IoCheckShareAccess). Counts of current
  // holders by granted access and by granted sharing.
  struct ShareState {
    uint32_t readers = 0;
    uint32_t writers = 0;
    uint32_t deleters = 0;
    uint32_t share_read = 0;   // Holders permitting others to read.
    uint32_t share_write = 0;
    uint32_t share_delete = 0;
    uint32_t holders = 0;
  };
  ShareState share;

  // Byte-range locks: (offset, length, owning file-object id).
  struct ByteRangeLock {
    uint64_t offset = 0;
    uint64_t length = 0;
    uint64_t owner = 0;
  };
  std::vector<ByteRangeLock> locks;
  // Pseudo disk position of the first byte (for the seek model).
  uint64_t disk_position = 0;

 private:
  uint64_t id_;
  std::string name_;
  bool directory_;
  FileNode* parent_ = nullptr;
  ChildMap children_;
};

// Aggregate produced by Volume::Walk for snapshot/analysis use.
struct VolumeCounts {
  uint64_t files = 0;
  uint64_t directories = 0;
  uint64_t total_file_bytes = 0;
};

class Volume {
 public:
  // `maintain_access_times` is false for FAT volumes (the paper's snapshot
  // walker ignores creation/last-access times on FAT, section 3.1).
  Volume(std::string label, uint64_t capacity_bytes, bool maintain_access_times = true);

  Volume(const Volume&) = delete;
  Volume& operator=(const Volume&) = delete;

  const std::string& label() const { return label_; }
  FileNode* root() { return root_.get(); }
  const FileNode* root() const { return root_.get(); }
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  // Raises capacity (never shrinks); used to keep scaled-down images
  // inside a realistic fullness band after construction.
  void EnsureCapacity(uint64_t bytes) {
    capacity_bytes_ = std::max(capacity_bytes_, bytes);
  }
  uint64_t used_bytes() const { return used_bytes_; }
  bool maintain_access_times() const { return maintain_access_times_; }

  // Resolves a relative path ("winnt\\system32\\foo.dll"); nullptr if any
  // component is missing. Empty path resolves to the root.
  FileNode* Lookup(const std::string& relative_path);
  // Resolves the parent directory of `relative_path`; sets `leaf` to the
  // final component, a view into `relative_path`. Returns nullptr when an
  // intermediate is missing or not a directory.
  FileNode* LookupParent(std::string_view relative_path, std::string_view* leaf);

  // Creates a node under `parent`. `now` stamps all three times. The node's
  // name is the only string an open builds (DESIGN.md §9).
  FileNode* CreateNode(FileNode* parent, std::string_view name, bool directory,
                       uint32_t attributes, SimTime now);

  // Convenience: creates all missing directories along the path, then the
  // leaf. Used by the image builder and profile sync.
  FileNode* CreatePath(const std::string& relative_path, bool directory, uint32_t attributes,
                       SimTime now);

  // Detaches the node from the tree. The node's storage is retained on a
  // graveyard until the Volume dies, so outstanding cache/VM references to
  // the pointer stay valid (see DESIGN.md).
  void RemoveNode(FileNode* node);

  // Bookkeeping for size changes (keeps used_bytes consistent).
  void NodeResized(FileNode* node, uint64_t new_size);

  // Depth-first walk over the live tree (root included).
  void Walk(const std::function<void(const FileNode&)>& visit) const;
  VolumeCounts Counts() const;

  uint64_t AssignDiskPosition(uint64_t bytes);

 private:
  void WalkNode(const FileNode& node, const std::function<void(const FileNode&)>& visit) const;

  std::string label_;
  uint64_t capacity_bytes_;
  bool maintain_access_times_;
  std::unique_ptr<FileNode> root_;
  std::vector<std::unique_ptr<FileNode>> graveyard_;
  uint64_t used_bytes_ = 0;
  uint64_t next_node_id_ = 1;
  uint64_t next_disk_position_ = 0;
};

}  // namespace ntrace

#endif  // SRC_FS_FILE_NODE_H_

// Dimension tables for the analysis star schema.
//
// "We developed a de-normalized star schema for the trace data ...
// Dimension tables are used in the analysis process as the category axes
// for multi-dimensional cube representations of the trace information. Most
// dimensions support multiple levels of summarization ... An example of
// categorization is that a mailbox file with a .mbx type is part of the
// mail files category, which is part of the application files category"
// (section 4).
//
// Three drill-down hierarchies are provided:
//   file type:  extension -> category -> class (the paper's example),
//   operation:  trace event -> operation group (data/control/directory/...),
//   time:       timestamp -> second/10-second/10-minute/hour/day buckets.

#ifndef SRC_TRACEDB_DIMENSIONS_H_
#define SRC_TRACEDB_DIMENSIONS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/base/time.h"
#include "src/trace/trace_record.h"

namespace ntrace {

// --- File-type dimension -----------------------------------------------------

enum class FileCategory : uint8_t {
  kExecutable,   // .exe .dll .sys ...
  kFont,         // .ttf .fon ...
  kDevelopment,  // .c .cpp .obj .pch .pdb ...
  kDocument,     // .doc .xls .txt ...
  kMail,         // .mbx .pst ...
  kWeb,          // .htm .gif .jpg (WWW cache content) ...
  kArchive,      // .zip .cab .msi ...
  kMultimedia,   // .avi .wav .bmp ...
  kDatabase,     // .mdb .db .ldb ...
  kConfiguration,  // .ini .inf ...
  kLog,          // .log
  kTemporary,    // .tmp .bak
  kOther,
};
constexpr int kNumFileCategories = 13;

enum class FileClass : uint8_t {
  kSystemFiles,       // Executables, fonts, configuration.
  kApplicationFiles,  // Mail, documents, databases, web, multimedia, archives.
  kDevelopmentFiles,
  kOtherFiles,
};
constexpr int kNumFileClasses = 4;

struct FileTypeKey {
  std::string extension;  // Lowercased, with dot; "" when none.
  FileCategory category = FileCategory::kOther;
  FileClass file_class = FileClass::kOtherFiles;
};

std::string_view FileCategoryName(FileCategory c);

class FileTypeDimension {
 public:
  // Categorizes a full NT path by its extension.
  static FileTypeKey Categorize(std::string_view path);
  static FileCategory CategoryOfExtension(std::string_view ext_lower);
  static FileClass ClassOfCategory(FileCategory c);
};

// --- Operation dimension -----------------------------------------------------

enum class OperationGroup : uint8_t {
  kDataTransfer,  // Read/write, IRP or FastIO.
  kControl,       // Query/set information, FSCTL, volume info, flush, locks.
  kDirectory,     // Directory enumeration.
  kLifecycle,     // Create, cleanup, close.
  kPaging,        // VM/cache-originated paging transfers.
};
constexpr int kNumOperationGroups = 5;

class OperationDimension {
 public:
  static OperationGroup GroupOf(const TraceRecord& r);
};

// --- Time dimension ----------------------------------------------------------

struct TimeKey {
  int64_t day = 0;
  int hour = 0;           // 0-23.
  int64_t minute10 = 0;   // 10-minute bucket index from epoch.
  int64_t second10 = 0;   // 10-second bucket index from epoch.
  int64_t second = 0;     // 1-second bucket index from epoch.
};

class TimeDimension {
 public:
  static TimeKey Bucketize(SimTime t);
};

// --- Process dimension -------------------------------------------------------

enum class ProcessClass : uint8_t {
  kInteractive,  // Takes direct user input (explorer, notepad, office).
  kService,      // System services, daemons.
  kDevelopment,  // Compilers, linkers, build drivers.
  kSystem,       // The kernel "system" process.
  kOther,
};
constexpr int kNumProcessClasses = 5;

class ProcessDimension {
 public:
  static ProcessClass Classify(std::string_view image_name);
};

}  // namespace ntrace

#endif  // SRC_TRACEDB_DIMENSIONS_H_

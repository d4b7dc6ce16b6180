#include "src/tracedb/dimensions.h"

#include <unordered_map>

#include "src/base/format.h"

namespace ntrace {

std::string_view FileCategoryName(FileCategory c) {
  switch (c) {
    case FileCategory::kExecutable:
      return "executable";
    case FileCategory::kFont:
      return "font";
    case FileCategory::kDevelopment:
      return "development";
    case FileCategory::kDocument:
      return "document";
    case FileCategory::kMail:
      return "mail";
    case FileCategory::kWeb:
      return "web";
    case FileCategory::kArchive:
      return "archive";
    case FileCategory::kMultimedia:
      return "multimedia";
    case FileCategory::kDatabase:
      return "database";
    case FileCategory::kConfiguration:
      return "configuration";
    case FileCategory::kLog:
      return "log";
    case FileCategory::kTemporary:
      return "temporary";
    case FileCategory::kOther:
      return "other";
  }
  return "unknown";
}

FileCategory FileTypeDimension::CategoryOfExtension(std::string_view ext_lower) {
  static const std::unordered_map<std::string_view, FileCategory> kMap = {
      {".exe", FileCategory::kExecutable}, {".dll", FileCategory::kExecutable},
      {".sys", FileCategory::kExecutable}, {".ocx", FileCategory::kExecutable},
      {".drv", FileCategory::kExecutable}, {".cpl", FileCategory::kExecutable},
      {".scr", FileCategory::kExecutable}, {".com", FileCategory::kExecutable},
      {".ttf", FileCategory::kFont},       {".fon", FileCategory::kFont},
      {".fot", FileCategory::kFont},
      {".c", FileCategory::kDevelopment},  {".cpp", FileCategory::kDevelopment},
      {".cc", FileCategory::kDevelopment}, {".h", FileCategory::kDevelopment},
      {".hpp", FileCategory::kDevelopment},{".cs", FileCategory::kDevelopment},
      {".java", FileCategory::kDevelopment},{".cls", FileCategory::kDevelopment},
      {".class", FileCategory::kDevelopment},{".obj", FileCategory::kDevelopment},
      {".lib", FileCategory::kDevelopment},{".pdb", FileCategory::kDevelopment},
      {".pch", FileCategory::kDevelopment},{".idb", FileCategory::kDevelopment},
      {".ilk", FileCategory::kDevelopment},{".exp", FileCategory::kDevelopment},
      {".res", FileCategory::kDevelopment},{".rc", FileCategory::kDevelopment},
      {".mak", FileCategory::kDevelopment},{".dsp", FileCategory::kDevelopment},
      {".dsw", FileCategory::kDevelopment},{".def", FileCategory::kDevelopment},
      {".doc", FileCategory::kDocument},   {".xls", FileCategory::kDocument},
      {".ppt", FileCategory::kDocument},   {".txt", FileCategory::kDocument},
      {".rtf", FileCategory::kDocument},   {".pdf", FileCategory::kDocument},
      {".wri", FileCategory::kDocument},   {".hlp", FileCategory::kDocument},
      {".mbx", FileCategory::kMail},       {".pst", FileCategory::kMail},
      {".idx", FileCategory::kMail},       {".dbx", FileCategory::kMail},
      {".eml", FileCategory::kMail},       {".snm", FileCategory::kMail},
      {".htm", FileCategory::kWeb},        {".html", FileCategory::kWeb},
      {".gif", FileCategory::kWeb},        {".jpg", FileCategory::kWeb},
      {".jpeg", FileCategory::kWeb},       {".png", FileCategory::kWeb},
      {".css", FileCategory::kWeb},        {".js", FileCategory::kWeb},
      {".url", FileCategory::kWeb},        {".asp", FileCategory::kWeb},
      {".zip", FileCategory::kArchive},    {".cab", FileCategory::kArchive},
      {".tar", FileCategory::kArchive},    {".gz", FileCategory::kArchive},
      {".arc", FileCategory::kArchive},    {".msi", FileCategory::kArchive},
      {".wav", FileCategory::kMultimedia}, {".avi", FileCategory::kMultimedia},
      {".mp3", FileCategory::kMultimedia}, {".mpg", FileCategory::kMultimedia},
      {".bmp", FileCategory::kMultimedia}, {".ico", FileCategory::kMultimedia},
      {".mdb", FileCategory::kDatabase},   {".db", FileCategory::kDatabase},
      {".ldb", FileCategory::kDatabase},   {".dbf", FileCategory::kDatabase},
      {".ini", FileCategory::kConfiguration},{".inf", FileCategory::kConfiguration},
      {".cfg", FileCategory::kConfiguration},{".reg", FileCategory::kConfiguration},
      {".pol", FileCategory::kConfiguration},{".dat", FileCategory::kConfiguration},
      {".log", FileCategory::kLog},
      {".tmp", FileCategory::kTemporary},  {".bak", FileCategory::kTemporary},
      {".swp", FileCategory::kTemporary},
  };
  auto it = kMap.find(ext_lower);
  return it == kMap.end() ? FileCategory::kOther : it->second;
}

FileClass FileTypeDimension::ClassOfCategory(FileCategory c) {
  switch (c) {
    case FileCategory::kExecutable:
    case FileCategory::kFont:
    case FileCategory::kConfiguration:
      return FileClass::kSystemFiles;
    case FileCategory::kDevelopment:
      return FileClass::kDevelopmentFiles;
    case FileCategory::kDocument:
    case FileCategory::kMail:
    case FileCategory::kWeb:
    case FileCategory::kArchive:
    case FileCategory::kMultimedia:
    case FileCategory::kDatabase:
      return FileClass::kApplicationFiles;
    case FileCategory::kLog:
    case FileCategory::kTemporary:
    case FileCategory::kOther:
      return FileClass::kOtherFiles;
  }
  return FileClass::kOtherFiles;
}

FileTypeKey FileTypeDimension::Categorize(std::string_view path) {
  FileTypeKey key;
  key.extension = PathExtension(path);
  key.category = CategoryOfExtension(key.extension);
  key.file_class = ClassOfCategory(key.category);
  return key;
}

OperationGroup OperationDimension::GroupOf(const TraceRecord& r) {
  if (r.IsPagingIo()) {
    return OperationGroup::kPaging;
  }
  switch (r.Event()) {
    case TraceEvent::kIrpRead:
    case TraceEvent::kIrpWrite:
    case TraceEvent::kFastIoRead:
    case TraceEvent::kFastIoWrite:
      return OperationGroup::kDataTransfer;
    case TraceEvent::kIrpDirectoryControl:
      return OperationGroup::kDirectory;
    case TraceEvent::kIrpCreate:
    case TraceEvent::kIrpCleanup:
    case TraceEvent::kIrpClose:
      return OperationGroup::kLifecycle;
    default:
      return OperationGroup::kControl;
  }
}

TimeKey TimeDimension::Bucketize(SimTime t) {
  TimeKey key;
  const int64_t seconds = t.ticks() / SimDuration::kTicksPerSecond;
  key.second = seconds;
  key.second10 = seconds / 10;
  key.minute10 = seconds / 600;
  key.hour = static_cast<int>((seconds / 3600) % 24);
  key.day = seconds / 86400;
  return key;
}

ProcessClass ProcessDimension::Classify(std::string_view image_name) {
  static const std::unordered_map<std::string_view, ProcessClass> kMap = {
      {"system", ProcessClass::kSystem},
      {"explorer.exe", ProcessClass::kInteractive},
      {"notepad.exe", ProcessClass::kInteractive},
      {"winword.exe", ProcessClass::kInteractive},
      {"excel.exe", ProcessClass::kInteractive},
      {"frontpage.exe", ProcessClass::kInteractive},
      {"outlook.exe", ProcessClass::kInteractive},
      {"netscape.exe", ProcessClass::kInteractive},
      {"iexplore.exe", ProcessClass::kInteractive},
      {"photoshop.exe", ProcessClass::kInteractive},
      {"winlogon.exe", ProcessClass::kService},
      {"services.exe", ProcessClass::kService},
      {"loadwc.exe", ProcessClass::kService},
      {"lsass.exe", ProcessClass::kService},
      {"spoolss.exe", ProcessClass::kService},
      {"cl.exe", ProcessClass::kDevelopment},
      {"link.exe", ProcessClass::kDevelopment},
      {"msdev.exe", ProcessClass::kDevelopment},
      {"nmake.exe", ProcessClass::kDevelopment},
      {"java.exe", ProcessClass::kDevelopment},
      {"javac.exe", ProcessClass::kDevelopment},
      {"simulate.exe", ProcessClass::kDevelopment},
  };
  auto it = kMap.find(image_name);
  return it == kMap.end() ? ProcessClass::kOther : it->second;
}

}  // namespace ntrace

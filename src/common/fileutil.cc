#include "common/fileutil.h"

#include <sys/stat.h>

#include <cstdio>

#include "common/failpoint.h"

namespace stmaker {

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

Result<std::string> ReadFileToString(const std::string& path) {
  STMAKER_FAILPOINT("io/open-read", return Status::IoError(
      "injected failure at io/open-read: " + path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::string text;
  // Size the buffer once for a regular file: a 12 MB corpus would
  // otherwise be regrown and copied a dozen times.
  struct stat st;
  if (fstat(fileno(f), &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    text.reserve(static_cast<size_t>(st.st_size));
  }
  char buf[65536];
  size_t n;
  bool injected_read_error = false;
  STMAKER_FAILPOINT("io/read", injected_read_error = true);
  while (!injected_read_error &&
         (n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  bool read_error = injected_read_error || std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::IoError("read failed: " + path);
  }
  return text;
}

Status WriteFileToPath(const std::string& path, const std::string& content) {
  STMAKER_FAILPOINT("io/open-write", return Status::IoError(
      "injected failure at io/open-write: " + path));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open for writing: " + path);
  }
  bool injected_write_error = false;
  STMAKER_FAILPOINT("io/write", injected_write_error = true);
  bool write_error =
      injected_write_error ||
      std::fwrite(content.data(), 1, content.size(), f) != content.size();
  STMAKER_FAILPOINT("io/close", write_error = true);
  if (std::fclose(f) != 0) write_error = true;
  if (write_error) {
    RemoveFileIfExists(path);
    return Status::IoError("write failed: " + path);
  }
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  STMAKER_RETURN_IF_ERROR(WriteFileToPath(tmp, content));
  Status renamed = RenameFile(tmp, path);
  if (!renamed.ok()) {
    RemoveFileIfExists(tmp);
    return renamed;
  }
  return Status::OK();
}

Status RenameFile(const std::string& from, const std::string& to) {
  STMAKER_FAILPOINT("io/rename", return Status::IoError(
      "injected failure at io/rename: " + to));
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IoError("cannot rename " + from + " to " + to);
  }
  return Status::OK();
}

void RemoveFileIfExists(const std::string& path) {
  std::remove(path.c_str());
}

}  // namespace stmaker

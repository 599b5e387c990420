"""Cloud storage gateway: S3-compatible interface (Cumulus-style) over
the BlobSeer back end."""

from .. import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cumulus": ["CumulusGateway"],
    "s3_api": ["S3Error", "NoSuchBucket", "NoSuchKey", "BucketAlreadyExists",
               "BucketNotEmpty", "S3AccessDenied", "InvalidPart",
               "ServiceUnavailable", "Permission", "BucketACL", "Bucket",
               "S3Object", "MultipartUpload"],
})

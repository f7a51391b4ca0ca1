"""The XML *application schema* (paper §3.3).

Describes an application's characteristics, estimated communication
size, resource requirements and estimated execution time; "initially
provided by the users and ... updated according to the statistics of
actual executions".
"""

from .appschema import ApplicationSchema, Characteristics, ResourceRequirements

__all__ = [
    "ApplicationSchema",
    "Characteristics",
    "ResourceRequirements",
]
